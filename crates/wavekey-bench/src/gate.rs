//! Gate verdicts. A gate bin turns its measurement into [`Check`]s
//! against bounds it declares as constants, and [`enforce`] prints every
//! check with its bound and exits non-zero when one fails, so `ci.sh`
//! only runs the bins.

/// One gate condition: its name, the measured value with its bound, and
/// whether the bound holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is checked.
    pub name: String,
    /// The measured value and the bound, as printed.
    pub detail: String,
    /// Whether the bound holds.
    pub pass: bool,
}

impl Check {
    /// A check whose detail the caller words.
    pub fn new(name: &str, pass: bool, detail: String) -> Check {
        Check { name: name.to_owned(), detail, pass }
    }

    /// `value >= min`.
    pub fn at_least(name: &str, value: f64, min: f64) -> Check {
        Check::new(name, value >= min, format!("{value:.4} (at least {min})"))
    }

    /// `value <= max`.
    pub fn at_most(name: &str, value: f64, max: f64) -> Check {
        Check::new(name, value <= max, format!("{value:.4} (at most {max})"))
    }

    /// `value < max`.
    pub fn below(name: &str, value: f64, max: f64) -> Check {
        Check::new(name, value < max, format!("{value:.4} (below {max})"))
    }

    /// A count that must be zero.
    pub fn zero(name: &str, count: u64) -> Check {
        Check::new(name, count == 0, format!("{count} (must be 0)"))
    }

    /// A property that must hold.
    pub fn holds(name: &str, ok: bool) -> Check {
        Check::new(name, ok, format!("{ok} (must be true)"))
    }
}

/// The names of the checks that fail.
pub fn failing(checks: &[Check]) -> Vec<&str> {
    checks.iter().filter(|c| !c.pass).map(|c| c.name.as_str()).collect()
}

/// Prints every check with its bound, then exits with status 1 when
/// any failed.
pub fn enforce(gate: &str, checks: &[Check]) {
    println!("\n== {gate} gate ==");
    for c in checks {
        println!("{} {:<38} {}", if c.pass { "ok  " } else { "FAIL" }, c.name, c.detail);
    }
    let failed = failing(checks);
    if !failed.is_empty() {
        eprintln!("FAIL: {gate} gate: {}", failed.join(", "));
        std::process::exit(1);
    }
    println!("OK: {gate} gate");
}
