//! Tiny flag parser for the CLI (no external dependencies).

/// Extracts `--flag value` from an argument list; returns `None` when the
/// flag is absent.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Extracts a parsed `--flag value`, falling back to `default`.
///
/// # Errors
///
/// Returns an error string when the flag is present but unparsable.
pub fn flag_parsed<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value '{v}' for {flag}")),
    }
}

/// Extracts `--refs N`, falling back to `default`. Every subcommand that
/// simulates a trace reads its length through here.
///
/// # Errors
///
/// Returns a one-line error when the value is unparsable or 0: an empty
/// trace has no baseline to normalize against.
pub fn refs_flag(args: &[String], default: u64) -> Result<u64, String> {
    match flag_parsed(args, "--refs", default)? {
        0 => Err("invalid value '0' for --refs: must be at least 1".to_owned()),
        n => Ok(n),
    }
}

/// First positional (non-flag) argument.
pub fn positional(args: &[String]) -> Option<&str> {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        return Some(a);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flag_extraction() {
        let args = v(&["tree", "--refs", "5000", "--scheme", "pMod"]);
        assert_eq!(flag_value(&args, "--refs"), Some("5000"));
        assert_eq!(flag_value(&args, "--scheme"), Some("pMod"));
        assert_eq!(flag_value(&args, "--none"), None);
    }

    #[test]
    fn parsed_with_default() {
        let args = v(&["--refs", "123"]);
        assert_eq!(flag_parsed(&args, "--refs", 7u64), Ok(123));
        assert_eq!(flag_parsed(&args, "--other", 7u64), Ok(7));
        assert!(flag_parsed(&v(&["--refs", "abc"]), "--refs", 0u64).is_err());
    }

    #[test]
    fn positional_skips_flags() {
        assert_eq!(positional(&v(&["--refs", "9", "tree"])), Some("tree"));
        assert_eq!(positional(&v(&["tree", "--refs", "9"])), Some("tree"));
        assert_eq!(positional(&v(&["--refs", "9"])), None);
    }
}
