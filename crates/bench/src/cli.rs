//! The one argument scanner of the bench binaries (`exp`, `report`).
//!
//! [`Args`] walks the arguments once, in order. A flag's value is the
//! next argument or follows `=` (`--jobs 2` or `--jobs=2`), and numbers
//! may use `_` separators (`-n 20_000`). `--help` or `-h` prints the
//! usage to stdout and exits 0. Every malformed argument ends in
//! [`Args::fail`]: the message and the usage on stderr, exit status 2.
//!
//! ```no_run
//! use cmpsim_bench::cli::Args;
//!
//! let mut args = Args::from_env("tool", "usage: tool [--refs N] [--check]");
//! let (mut refs, mut check) = (1_000u64, false);
//! while let Some(arg) = args.next() {
//!     match arg.as_str() {
//!         "--refs" | "-n" => refs = args.number(),
//!         "--check" => check = true,
//!         other => args.fail(format!("unknown flag {other}")),
//!     }
//! }
//! ```

use std::fmt::Display;
use std::str::FromStr;

/// Scans one command line; see the module docs.
#[derive(Debug)]
pub struct Args {
    prog: String,
    usage: String,
    rest: std::vec::IntoIter<String>,
    /// The argument [`Iterator::next`] returned last, for error messages.
    current: String,
    /// The `VALUE` of a `--flag=VALUE` argument, until it is taken.
    inline: Option<String>,
}

impl Args {
    /// Scans `argv` for the program `prog`, whose `usage` text goes with
    /// `--help` and with every error.
    pub fn new(prog: &str, usage: &str, argv: impl IntoIterator<Item = String>) -> Self {
        Args {
            prog: prog.to_string(),
            usage: usage.to_string(),
            rest: argv.into_iter().collect::<Vec<_>>().into_iter(),
            current: String::new(),
            inline: None,
        }
    }

    /// Scans the process arguments after the program name.
    pub fn from_env(prog: &str, usage: &str) -> Self {
        Self::new(prog, usage, std::env::args().skip(1))
    }

    /// Hands the arguments left after the subcommand `name` to that
    /// subcommand, with its own usage text.
    pub fn subcommand(self, name: &str, usage: &str) -> Self {
        Args {
            prog: format!("{} {name}", self.prog),
            usage: usage.to_string(),
            ..self
        }
    }

    /// The value of the flag [`Iterator::next`] returned last.
    pub fn value(&mut self) -> String {
        match self.inline.take().or_else(|| self.rest.next()) {
            Some(value) => value,
            None => self.fail(format!("missing value for {}", self.current)),
        }
    }

    /// The flag's value as a number; see [`Args::parse`].
    pub fn number<T: FromStr>(&mut self) -> T
    where
        T::Err: Display,
    {
        let raw = self.value();
        self.parse(&self.current, &raw)
    }

    /// Parses `raw`, the value of `what`, as a number with optional `_`
    /// separators. A value that does not fit `T` fails rather than
    /// wrapping.
    pub fn parse<T: FromStr>(&self, what: &str, raw: &str) -> T
    where
        T::Err: Display,
    {
        raw.replace('_', "")
            .parse()
            .unwrap_or_else(|e| self.fail(format!("{what} {raw}: {e}")))
    }

    /// Prints `msg` and the usage to stderr, then exits 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}\n{}", self.prog, self.usage);
        std::process::exit(2);
    }
}

/// Yields the next flag or positional argument: `--flag=VALUE` yields
/// `--flag` and keeps `VALUE` for [`Args::value`]. A value nothing took
/// fails as given to a flag that takes none.
impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        if self.inline.is_some() {
            self.fail(format!("{} takes no value", self.current));
        }
        let arg = self.rest.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        self.current = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => {
                self.inline = Some(value.to_string());
                flag.to_string()
            }
            _ => arg,
        };
        Some(self.current.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::new("t", "usage: t", argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_follow_the_flag_or_an_equals_sign() {
        let mut a = args(&["--jobs", "2", "--refs=20_000", "-", "--check", "--path=a=b"]);
        assert_eq!(a.next().as_deref(), Some("--jobs"));
        assert_eq!(a.number::<usize>(), 2);
        assert_eq!(a.next().as_deref(), Some("--refs"));
        assert_eq!(a.number::<u64>(), 20_000);
        assert_eq!(a.next().as_deref(), Some("-"));
        assert_eq!(a.next().as_deref(), Some("--check"));
        assert_eq!(a.next().as_deref(), Some("--path"));
        assert_eq!(a.value(), "a=b");
        assert_eq!(a.next(), None);
    }

    #[test]
    fn positionals_keep_their_equals_signs() {
        let mut a = args(&["a=b", "-x=1"]);
        assert_eq!(a.next().as_deref(), Some("a=b"));
        assert_eq!(a.next().as_deref(), Some("-x=1"));
        assert_eq!(a.next(), None);
    }
}
