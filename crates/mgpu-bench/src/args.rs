//! The one flag parser: a declarative table of [`Flag`] rows and a cursor
//! over `argv`, shared by `mgpu run`, `mgpu serve`, `repro` and `chaos_soak`.
//!
//! A row names its flag, the placeholder and help its usage line prints, and
//! the setter that stores it. Values parse through [`FlagValue`], whose type
//! states the accepted range, so every unparseable value — numeric or name —
//! reads `bad --flag VALUE: want …`. Nothing here exits or panics: parsing
//! returns `Result<_, String>` and `main` maps an `Err` to exit code 2.

use std::iter::Peekable;
use std::num::NonZeroUsize;
use std::slice::Iter;
use std::str::FromStr;

use mgpu_core::{AllocScheme, CommStrategy, WireEncoding};
use mgpu_gen::Dataset;
use mgpu_partition::PartitionerKind;
use vgpu::HardwareProfile;

use crate::runners::Primitive;

/// A flag value whose type states its range.
pub trait FlagValue: Sized {
    /// That range in words: the tail of `bad --flag VALUE: want …`, and for a
    /// named value the placeholder its usage line prints.
    const WANT: &'static str;

    /// The value `s` spells, if it is in range.
    fn parse_flag(s: &str) -> Option<Self>;
}

macro_rules! flag_values {
    ($($t:ty => $want:literal),* $(,)?) => {$(
        impl FlagValue for $t {
            const WANT: &'static str = $want;
            fn parse_flag(s: &str) -> Option<Self> {
                s.parse().ok()
            }
        }
    )*};
}

// The unsigned types refuse a sign, `NonZeroUsize` refuses zero, every type
// refuses overflow; the names are each enum's `label()`s (a unit test holds
// the two lists equal).
flag_values!(
    NonZeroUsize => "an integer >= 1",
    usize => "an integer >= 0",
    u64 => "an integer >= 0",
    Shift => "an integer in 0..=63",
    SizingFactor => "a number in (0, 2^32]",
    Primitive => "bc|bfs|cc|dobfs|pr|sssp",
    PartitionerKind => "random|biased|metis|chunked",
    CommStrategy => "selective|broadcast",
    WireEncoding => "auto|list",
    AllocScheme => "just-enough|fixed|max|prealloc-fusion",
);

impl FlagValue for Dataset {
    const WANT: &'static str = "a name listed by mgpu datasets";
    fn parse_flag(s: &str) -> Option<Self> {
        Dataset::by_name(s)
    }
}

/// `--profile k40|k80|p100`: the hardware, and the name that picked it
/// (reports print the name).
#[derive(Debug, Clone, PartialEq)]
pub struct Hardware {
    /// The flag value.
    pub name: String,
    /// What it names.
    pub profile: HardwareProfile,
}

impl FlagValue for Hardware {
    const WANT: &'static str = "k40|k80|p100";
    fn parse_flag(s: &str) -> Option<Self> {
        HardwareProfile::by_name(s).map(|profile| Hardware { name: s.to_string(), profile })
    }
}

/// `--shift`: the dataset scale-down exponent, below the 64-bit shift width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shift(pub u32);

impl FromStr for Shift {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        s.parse().ok().filter(|&x: &u32| x < 64).map(Shift).ok_or(())
    }
}

/// `--sizing-factor`: a frontier holds at most `|E_i| <= |V_i|^2` ids, so a
/// multiplier on `|V_i|` past the 32-bit id space cannot be meant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingFactor(pub f64);

impl FromStr for SizingFactor {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        s.parse()
            .ok()
            .filter(|&x: &f64| x > 0.0 && x <= 4_294_967_296.0)
            .map(SizingFactor)
            .ok_or(())
    }
}

/// One row of a flag table over the options struct `O`.
pub struct Flag<O> {
    /// The flag as typed, e.g. `--gpus`.
    pub name: &'static str,
    /// Placeholder for the value in the usage text; empty for a switch.
    pub value: &'static str,
    /// One usage line of help.
    pub help: &'static str,
    /// Store the flag (and the value behind the cursor) into `O`.
    pub set: fn(&mut O, Arg<'_, '_>) -> Result<(), String>,
}

impl<O> Flag<O> {
    /// A row; `value` is empty for a switch.
    pub const fn new(
        name: &'static str,
        value: &'static str,
        help: &'static str,
        set: fn(&mut O, Arg<'_, '_>) -> Result<(), String>,
    ) -> Self {
        Flag { name, value, help, set }
    }
}

/// A matched flag plus the cursor behind it: what a row's setter consumes.
pub struct Arg<'c, 'a> {
    flag: &'static str,
    rest: &'c mut Peekable<Iter<'a, String>>,
}

impl Arg<'_, '_> {
    /// The next argument verbatim.
    pub fn text(self) -> Result<String, String> {
        self.rest.next().cloned().ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The next argument as a `T`.
    pub fn parse<T: FlagValue>(self) -> Result<T, String> {
        let flag = self.flag;
        let value = self.text()?;
        T::parse_flag(&value).ok_or_else(|| format!("bad {flag} {value}: want {}", T::WANT))
    }

    /// The next argument as a `T` if it spells one, left in place otherwise —
    /// for the one flag (`--profile`) that is also a switch.
    pub fn optional<T: FlagValue>(self) -> Option<T> {
        let value = self.rest.peek().and_then(|s| T::parse_flag(s))?;
        self.rest.next();
        Some(value)
    }
}

/// Walk `args`, dispatching every flag to its row in `tables`; a row in an
/// earlier table shadows a later one of the same name.
pub fn parse_flags<O>(tables: &[&[Flag<O>]], args: &[String], mut opts: O) -> Result<O, String> {
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        let row = tables
            .iter()
            .flat_map(|t| t.iter())
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag {arg}"))?;
        (row.set)(&mut opts, Arg { flag: row.name, rest: &mut rest })?;
    }
    Ok(opts)
}

/// The usage text of a table: `  --flag VALUE` over its indented help.
pub fn usage_lines<O>(table: &[Flag<O>]) -> String {
    table
        .iter()
        .map(|f| {
            format!("  {}\n        {}\n", format!("{} {}", f.name, f.value).trim_end(), f.help)
        })
        .collect()
}

/// `main`-level error mapping for a bench binary: print the one line and the
/// generated usage, exit 2.
pub fn parse_or_exit<O>(table: &[Flag<O>], defaults: O) -> O {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_default();
    let args: Vec<String> = argv.collect();
    parse_flags(&[table], &args, defaults).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: {bin} [flags]\n{}", usage_lines(table));
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two flags every experiment binary takes, over `(shift, seed)`.
    const TABLE: &[Flag<(u32, u64)>] = &[
        Flag::new("--shift", "N", "dataset scale-down exponent, 0..=63 [default 8]", |o, a| {
            a.parse::<Shift>().map(|s| o.0 = s.0)
        }),
        Flag::new("--seed", "S", "generator/partitioner seed [default 42]", |o, a| {
            a.parse().map(|s| o.1 = s)
        }),
    ];

    fn parse(args: &[&str]) -> Result<(u32, u64), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_flags(&[TABLE], &args, (8, 42))
    }

    #[test]
    fn defaults() {
        assert_eq!(parse(&[]).unwrap(), (8, 42));
    }

    #[test]
    fn parses_flags() {
        assert_eq!(parse(&["--shift", "5", "--seed", "7"]).unwrap(), (5, 7));
    }

    #[test]
    fn rejects_unknown() {
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown flag --bogus");
    }

    #[test]
    fn bad_values_are_one_line_not_a_panic() {
        assert_eq!(
            parse(&["--shift", "64"]).unwrap_err(),
            "bad --shift 64: want an integer in 0..=63"
        );
        assert_eq!(parse(&["--seed", "-1"]).unwrap_err(), "bad --seed -1: want an integer >= 0");
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
    }

    #[test]
    fn named_values_want_exactly_their_labels() {
        fn labels<T>(all: &[T], label: impl Fn(&T) -> &'static str) -> String {
            all.iter().map(label).collect::<Vec<_>>().join("|")
        }
        assert_eq!(Primitive::WANT, labels(&Primitive::all(), |p| p.label()));
        assert_eq!(PartitionerKind::WANT, labels(PartitionerKind::ALL, PartitionerKind::label));
        assert_eq!(CommStrategy::WANT, labels(CommStrategy::ALL, CommStrategy::label));
        assert_eq!(WireEncoding::WANT, labels(WireEncoding::ALL, WireEncoding::label));
        assert!(AllocScheme::WANT.split('|').all(|n| AllocScheme::parse_flag(n).is_some()));
        assert!(Hardware::WANT.split('|').all(|n| Hardware::parse_flag(n).is_some()));
    }

    #[test]
    fn usage_lists_every_row() {
        let usage = usage_lines(TABLE);
        assert_eq!(usage.lines().count(), 2 * TABLE.len());
        assert!(usage.starts_with("  --shift N\n        dataset scale-down"), "{usage}");
    }
}
