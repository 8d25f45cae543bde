//! A minimal, strict `--key value` command-line parser (no external
//! deps).
//!
//! Each binary declares the flags it reads. An undeclared flag, a stray
//! positional argument, or a value that does not parse as the type the
//! binary asks for ends the process with exit status 2 and a message
//! naming the flag — a typo never silently runs the default experiment.

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed command-line flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()` of the form `--key value` or `--switch`,
    /// accepting only the flags in `known`; exits with status 2 on
    /// anything else.
    pub fn parse(known: &[&str]) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        or_exit(Self::parse_from(&argv, known))
    }

    /// `parse` over an explicit argument list, returning
    /// the rejection instead of exiting.
    fn parse_from(argv: &[String], known: &[&str]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let Some(key) = argv[i].strip_prefix("--") else {
                return Err(format!("unexpected argument `{}`", argv[i]));
            };
            if !known.contains(&key) {
                let takes = known
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                return Err(format!("unknown flag --{key} (this binary takes: {takes})"));
            }
            match argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => {
                    flags.insert(key.to_owned(), v.clone());
                    i += 2;
                }
                None => {
                    flags.insert(key.to_owned(), "true".to_owned());
                    i += 1;
                }
            }
        }
        Ok(Self { flags })
    }

    /// A flag's value parsed as `T`, `default` when absent, an error
    /// naming the flag when present but unparseable.
    fn try_get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{key}")),
        }
    }

    /// An integer flag with a default; exits with status 2 if the value
    /// does not parse.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        or_exit(self.try_get(key, default))
    }

    /// A float flag with a default; exits with status 2 if the value
    /// does not parse.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        or_exit(self.try_get(key, default))
    }

    /// A boolean switch: `--key` alone, or `--key true|false|1|0`; exits
    /// with status 2 on any other value.
    pub fn get_bool(&self, key: &str) -> bool {
        or_exit(match self.flags.get(key).map(String::as_str) {
            None | Some("false" | "0") => Ok(false),
            Some("true" | "1") => Ok(true),
            Some(v) => Err(format!("invalid value `{v}` for --{key}")),
        })
    }
}

fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_apply() {
        let a = Args::default();
        assert_eq!(a.get_u64("runs", 7), 7);
        assert_eq!(a.get_f64("load", 0.5), 0.5);
        assert!(!a.get_bool("full"));
    }

    #[test]
    fn declared_flags_parse() {
        let a = Args::parse_from(&argv(&["--runs", "12", "--full"]), &["runs", "full"]).unwrap();
        assert_eq!(a.get_u64("runs", 7), 12);
        assert!(a.get_bool("full"));
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = Args::parse_from(&argv(&["--rnus", "12"]), &["runs"]).unwrap_err();
        assert!(err.contains("--rnus"), "{err}");
        assert!(err.contains("--runs"), "lists what the binary takes: {err}");
        let err = Args::parse_from(&argv(&["12"]), &["runs"]).unwrap_err();
        assert!(err.contains("`12`"), "{err}");
    }

    #[test]
    fn unparseable_values_are_rejected_by_name() {
        let a = Args::parse_from(
            &argv(&["--runs", "12x", "--load", "high"]),
            &["runs", "load"],
        )
        .unwrap();
        let err = a.try_get("runs", 7u64).unwrap_err();
        assert!(err.contains("--runs") && err.contains("12x"), "{err}");
        let err = a.try_get("load", 0.5f64).unwrap_err();
        assert!(err.contains("--load") && err.contains("high"), "{err}");
    }
}
