//! Filesystem-facing helpers for the `lambda-trim` command-line tool:
//! loading a module registry from a directory of `.py` files, parsing
//! oracle-specification files, and writing a trimmed registry back out.
//!
//! Layout conventions mirror site-packages:
//!
//! ```text
//! packages/
//!   utils.py              -> module `utils`
//!   torch/__init__.py     -> module `torch`
//!   torch/nn.py           -> module `torch.nn`
//!   torch/nn/__init__.py  -> module `torch.nn` (directory package form)
//! ```

use pylite::Registry;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use trim_core::{OracleSpec, TestCase};

/// Load every `.py` file under `dir` into a [`Registry`], mapping paths to
/// dotted module names.
///
/// # Errors
///
/// I/O errors reading the tree, or `InvalidData` for non-UTF-8 sources.
pub fn load_registry(dir: &Path) -> io::Result<Registry> {
    let mut registry = Registry::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in fs::read_dir(&current)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("py") {
                let module = module_name_for(dir, &path).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("cannot derive module name for {}", path.display()),
                    )
                })?;
                let source = fs::read_to_string(&path)?;
                registry.set_module(module, source);
            }
        }
    }
    Ok(registry)
}

/// Derive the dotted module name of `file` relative to `root`.
pub fn module_name_for(root: &Path, file: &Path) -> Option<String> {
    let rel = file.strip_prefix(root).ok()?;
    let mut parts: Vec<String> = Vec::new();
    for component in rel.components() {
        parts.push(component.as_os_str().to_str()?.to_owned());
    }
    let last = parts.pop()?;
    let stem = last.strip_suffix(".py")?;
    if stem != "__init__" {
        parts.push(stem.to_owned());
    }
    if parts.is_empty() {
        return None;
    }
    Some(parts.join("."))
}

/// Write a registry back to disk under `dir`, packages as directories with
/// `__init__.py`, plain modules as `<name>.py`.
///
/// # Errors
///
/// Any I/O error creating directories or writing files.
pub fn write_registry(registry: &Registry, dir: &Path) -> io::Result<()> {
    for module in registry.module_names() {
        let source = registry.source(&module).expect("listed module has source");
        let path = module_path(registry, dir, &module);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, source)?;
    }
    Ok(())
}

fn module_path(registry: &Registry, dir: &Path, module: &str) -> PathBuf {
    let is_package = !registry.submodules(module).is_empty();
    let mut path = dir.to_path_buf();
    let parts: Vec<&str> = module.split('.').collect();
    for p in &parts[..parts.len() - 1] {
        path.push(p);
    }
    let leaf = parts[parts.len() - 1];
    if is_package {
        path.push(leaf);
        path.push("__init__.py");
    } else {
        path.push(format!("{leaf}.py"));
    }
    path
}

/// Parse an oracle-specification file: one test case per non-empty,
/// non-comment line, either `EVENT` or `EVENT || CONTEXT` (pylite
/// literals).
///
/// ```text
/// # events the trimmed function must answer identically
/// {"n": 3}
/// {"n": -1} || {"request_id": "abc"}
/// ```
///
/// # Errors
///
/// `InvalidData` when a line is not a valid pylite literal.
pub fn parse_oracle_file(content: &str, handler: &str) -> io::Result<OracleSpec> {
    let mut cases = Vec::new();
    for (lineno, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (event, context) = match line.split_once("||") {
            Some((e, c)) => (e.trim().to_owned(), c.trim().to_owned()),
            None => (line.to_owned(), "None".to_owned()),
        };
        // Validate both literals eagerly so errors carry line numbers.
        for (what, lit) in [("event", &event), ("context", &context)] {
            trim_core::oracle::parse_literal(lit).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("oracle line {}: bad {what} literal: {e}", lineno + 1),
                )
            })?;
        }
        cases.push(TestCase { event, context });
    }
    if cases.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oracle file contains no test cases",
        ));
    }
    Ok(OracleSpec {
        handler: handler.to_owned(),
        cases,
    })
}

/// Minimal flag parser: `--key value` pairs plus positional words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: Vec<(String, String)>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
}

impl Args {
    /// Parse from an iterator of raw arguments (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = iter.next().expect("peeked");
                        out.options.push((key.to_owned(), v));
                    }
                    _ => out.flags.push(key.to_owned()),
                }
            } else {
                out.positional.push(arg);
            }
        }
        out
    }

    /// The value of option `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the bare flag `key` was passed.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Reject any `--key` (option or bare flag) that is not in `known`,
    /// naming the valid ones, so a misspelled option fails instead of
    /// silently falling back to its default.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown option and listing `known`.
    pub fn check_known(&self, command: &str, known: &[&str]) -> Result<(), String> {
        let keys = self.options.iter().map(|(k, _)| k).chain(&self.flags);
        match keys.into_iter().find(|k| !known.contains(&k.as_str())) {
            None => Ok(()),
            Some(unknown) => {
                let valid: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                Err(format!(
                    "unknown option `--{unknown}` for `{command}`; valid options: {}",
                    valid.join(", ")
                ))
            }
        }
    }

    /// Required option, with a readable error.
    ///
    /// # Errors
    ///
    /// A message naming the missing option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }
}

/// Resolve a `--scoring` string to a [`trim_profiler::ScoringMethod`].
///
/// # Errors
///
/// A message listing the valid values.
pub fn parse_scoring(s: &str) -> Result<trim_profiler::ScoringMethod, String> {
    match s {
        "combined" => Ok(trim_profiler::ScoringMethod::Combined),
        "time" => Ok(trim_profiler::ScoringMethod::Time),
        "memory" => Ok(trim_profiler::ScoringMethod::Memory),
        "random" => Ok(trim_profiler::ScoringMethod::Random { seed: 7 }),
        other => Err(format!(
            "unknown scoring method `{other}` (expected combined|time|memory|random)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lambda-trim-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn module_names_from_paths() {
        let root = Path::new("/pkgs");
        let name = |p: &str| module_name_for(root, Path::new(p));
        assert_eq!(name("/pkgs/utils.py"), Some("utils".into()));
        assert_eq!(name("/pkgs/torch/__init__.py"), Some("torch".into()));
        assert_eq!(name("/pkgs/torch/nn.py"), Some("torch.nn".into()));
        assert_eq!(name("/pkgs/torch/nn/__init__.py"), Some("torch.nn".into()));
        assert_eq!(name("/pkgs/__init__.py"), None, "root init has no name");
        assert_eq!(name("/elsewhere/x.py"), None);
    }

    #[test]
    fn registry_roundtrip_through_filesystem() {
        let dir = tempdir("roundtrip");
        let mut registry = Registry::new();
        registry.set_module("utils", "def f(x):\n    return x\n");
        registry.set_module("pkg", "from pkg.sub import a\n");
        registry.set_module("pkg.sub", "a = 1\n");
        write_registry(&registry, &dir).unwrap();
        assert!(dir.join("utils.py").exists());
        assert!(dir.join("pkg/__init__.py").exists());
        assert!(dir.join("pkg/sub.py").exists());
        let loaded = load_registry(&dir).unwrap();
        assert_eq!(loaded, registry);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_file_parsing() {
        let spec = parse_oracle_file(
            "# comment\n{\"n\": 1}\n\n{\"n\": 2} || {\"id\": \"x\"}\n",
            "handler",
        )
        .unwrap();
        assert_eq!(spec.cases.len(), 2);
        assert_eq!(spec.cases[1].context, "{\"id\": \"x\"}");
        assert!(parse_oracle_file("", "handler").is_err());
        assert!(parse_oracle_file("not a literal ][", "handler").is_err());
    }

    #[test]
    fn args_parsing() {
        let args = Args::parse(
            ["trim", "--app", "a.py", "--wrap", "--k", "5"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert_eq!(args.positional, vec!["trim"]);
        assert_eq!(args.get("app"), Some("a.py"));
        assert_eq!(args.get("k"), Some("5"));
        assert!(args.has_flag("wrap"));
        assert!(args.require("missing").is_err());
    }

    #[test]
    fn unknown_options_are_rejected() {
        let args = Args::parse(
            ["trim", "--app", "a.py", "--wrap", "--k", "5"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert!(args.check_known("trim", &["app", "wrap", "k"]).is_ok());
        let err = args
            .check_known("trim", &["app", "k"])
            .expect_err("`--wrap` is not in the list");
        assert!(err.contains("unknown option `--wrap` for `trim`"), "{err}");
        assert!(err.contains("--app, --k"), "{err}");
        // A removed flag, such as `trim --ic-stats`, is just as unknown.
        let args = Args::parse(
            ["trim", "--app", "a.py", "--ic-stats"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        let err = args
            .check_known("trim", &["app", "k"])
            .expect_err("`--ic-stats` is not in the list");
        assert!(
            err.contains("unknown option `--ic-stats` for `trim`"),
            "{err}"
        );
    }

    #[test]
    fn scoring_parsing() {
        assert!(parse_scoring("combined").is_ok());
        assert!(parse_scoring("time").is_ok());
        assert!(parse_scoring("bogus").is_err());
    }
}
