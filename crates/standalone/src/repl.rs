//! Command parsing for the `kvshell` binary (and anything else that wants a
//! tiny textual interface to the store).

/// A parsed shell command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplCommand {
    /// `set <key> <value>`
    Set {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// `get <key>`
    Get {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// `del <key>`
    Del {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// `scan <start-key> <limit>`
    Scan {
        /// Inclusive start key.
        start: Vec<u8>,
        /// Maximum results.
        limit: usize,
    },
    /// `stats`
    Stats,
    /// `trace [n]` — dump every cluster node's RIFL-keyed spans (the last
    /// `n` lines of each when a limit is given).
    Trace {
        /// Keep only the last this-many lines of each node's dump.
        limit: Option<usize>,
    },
    /// `help`
    Help,
    /// `quit` / `exit`
    Quit,
}

/// Errors from [`parse_command`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseCommandError {
    /// Input was empty or whitespace.
    Empty,
    /// First word is not a known command.
    UnknownCommand(String),
    /// Known command with wrong arguments; carries a usage string.
    Usage(&'static str),
}

impl std::fmt::Display for ParseCommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseCommandError::Empty => write!(f, "empty command"),
            ParseCommandError::UnknownCommand(c) => write!(f, "unknown command `{c}`"),
            ParseCommandError::Usage(u) => write!(f, "usage: {u}"),
        }
    }
}

impl std::error::Error for ParseCommandError {}

/// Parses one shell line.
///
/// # Errors
///
/// Returns [`ParseCommandError`] for empty lines, unknown verbs, or wrong
/// arities.
pub fn parse_command(line: &str) -> Result<ReplCommand, ParseCommandError> {
    let mut parts = line.split_whitespace();
    let verb = parts.next().ok_or(ParseCommandError::Empty)?;
    let rest: Vec<&str> = parts.collect();
    match verb {
        "set" => match rest.as_slice() {
            [key, value @ ..] if !value.is_empty() => Ok(ReplCommand::Set {
                key: key.as_bytes().to_vec(),
                value: value.join(" ").into_bytes(),
            }),
            _ => Err(ParseCommandError::Usage("set <key> <value...>")),
        },
        "get" => match rest.as_slice() {
            [key] => Ok(ReplCommand::Get {
                key: key.as_bytes().to_vec(),
            }),
            _ => Err(ParseCommandError::Usage("get <key>")),
        },
        "del" | "delete" => match rest.as_slice() {
            [key] => Ok(ReplCommand::Del {
                key: key.as_bytes().to_vec(),
            }),
            _ => Err(ParseCommandError::Usage("del <key>")),
        },
        "scan" => match rest.as_slice() {
            [start, limit] => limit
                .parse::<usize>()
                .map(|limit| ReplCommand::Scan {
                    start: start.as_bytes().to_vec(),
                    limit,
                })
                .map_err(|_| ParseCommandError::Usage("scan <start-key> <limit>")),
            _ => Err(ParseCommandError::Usage("scan <start-key> <limit>")),
        },
        "stats" => Ok(ReplCommand::Stats),
        "trace" => match rest.as_slice() {
            [] => Ok(ReplCommand::Trace { limit: None }),
            [n] => n
                .parse::<usize>()
                .map(|limit| ReplCommand::Trace { limit: Some(limit) })
                .map_err(|_| ParseCommandError::Usage("trace [n]")),
            _ => Err(ParseCommandError::Usage("trace [n]")),
        },
        "help" | "?" => Ok(ReplCommand::Help),
        "quit" | "exit" => Ok(ReplCommand::Quit),
        other => Err(ParseCommandError::UnknownCommand(other.to_owned())),
    }
}

/// The help text `kvshell` prints.
pub const HELP: &str = "commands:
  set <key> <value...>   write a value (spaces allowed in value)
  get <key>              read a value
  del <key>              delete a key
  scan <start> <limit>   range scan in key order
  stats                  engine statistics + registry stats plane
  trace [n]              each node's RIFL-keyed spans (last n lines; --connect)
  help                   this text
  quit                   leave";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_crud() {
        assert_eq!(
            parse_command("set user1 hello world").unwrap(),
            ReplCommand::Set {
                key: b"user1".to_vec(),
                value: b"hello world".to_vec()
            }
        );
        assert_eq!(
            parse_command("get user1").unwrap(),
            ReplCommand::Get {
                key: b"user1".to_vec()
            }
        );
        assert_eq!(
            parse_command("del user1").unwrap(),
            ReplCommand::Del {
                key: b"user1".to_vec()
            }
        );
        assert_eq!(
            parse_command("scan user 10").unwrap(),
            ReplCommand::Scan {
                start: b"user".to_vec(),
                limit: 10
            }
        );
    }

    #[test]
    fn parses_misc() {
        assert_eq!(parse_command("stats").unwrap(), ReplCommand::Stats);
        assert_eq!(
            parse_command("trace").unwrap(),
            ReplCommand::Trace { limit: None }
        );
        assert_eq!(
            parse_command("trace 20").unwrap(),
            ReplCommand::Trace { limit: Some(20) }
        );
        assert_eq!(parse_command("help").unwrap(), ReplCommand::Help);
        assert_eq!(parse_command("exit").unwrap(), ReplCommand::Quit);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(parse_command("   "), Err(ParseCommandError::Empty));
        assert!(matches!(
            parse_command("frobnicate x"),
            Err(ParseCommandError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse_command("set onlykey"),
            Err(ParseCommandError::Usage(_))
        ));
        assert!(matches!(
            parse_command("scan a b"),
            Err(ParseCommandError::Usage(_))
        ));
        assert!(matches!(
            parse_command("get"),
            Err(ParseCommandError::Usage(_))
        ));
        assert!(matches!(
            parse_command("trace many"),
            Err(ParseCommandError::Usage(_))
        ));
    }
}
