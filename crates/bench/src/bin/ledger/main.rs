//! `ledger` — the repository's benchmark (see `README.md` beside this
//! file and `BENCHMARK.json` at the root).
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! ledger compare <base.jsonl> <change.jsonl>
//! ```
//!
//! A run generates its inputs from `--seed`, measures for `--seconds`,
//! checks every output against a strict-serial reference, prints each
//! metric by name with its unit and ends with one line of JSON. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones, from ledger-side timing
//! of the calls into each layer, the program's own spans and counters,
//! and its public reports.

mod compare;
mod layers;
mod report;
mod script;
mod serve;
mod solo;
mod stats;
mod verify;

use report::{Declaration, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What the driver passes to a run.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// Scratch space inside the working directory (the driver's checkout),
/// removed when the run ends however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(".ledger_tmp").join(format!("{}-{nanos:x}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        let _ = std::fs::remove_dir(".ledger_tmp");
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(text) => text.parse().map_err(|_| format!("{name}: cannot read `{text}`")),
        None => Ok(default),
    }
}

fn run_workload(name: &str, args: &RunArgs, scratch: &Path) -> Result<Outcome, String> {
    if name.starts_with("serve_") {
        serve::run(name, args, scratch)
    } else {
        solo::run(name, args, scratch)
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let decl = Declaration::compiled_in()?;
    let name = flag(args, "--workload").ok_or("missing --workload <name>")?.to_string();
    if !decl.workloads.contains(&name) {
        return Err(format!("no workload `{name}`; BENCHMARK.json declares {:?}", decl.workloads));
    }
    let run_args = RunArgs {
        seed: parsed(args, "--seed", 1)?,
        seconds: parsed(args, "--seconds", decl.run_seconds)?.max(1),
        traced: match parsed(args, "--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace: {other} is neither 0 nor 1")),
        },
    };

    let scratch = Scratch::create()?;
    let mut outcome = run_workload(&name, &run_args, &scratch.0)?;
    drop(scratch);
    if run_args.traced {
        layers::flow_probe(&mut outcome);
    }
    let values = outcome.declared(&decl, run_args.traced)?;

    let disk = format!("{:?}", helix_storage::DiskProfile::paper_hdd());
    let machine = report::machine_block(&disk);
    println!("workload {name} seed {} seconds {}", run_args.seed, run_args.seconds);
    for (key, value) in machine.iter().chain(&outcome.notes) {
        println!("# {key}: {value}");
    }
    for (metric, value) in &values {
        println!("{} {value} {}", metric.name, metric.unit);
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    if let Some(error) = &outcome.first_error {
        println!("# first failure: {error}");
    }
    if let Some(path) = flag(args, "--out") {
        let record = report::saved_record(
            &name,
            run_args.seed,
            run_args.seconds,
            run_args.traced,
            &machine,
            &outcome,
            &values,
        );
        append_line(Path::new(path), &record)?;
    }
    println!("{}", report::result_line(&outcome, &values));
    Ok(outcome.failed == 0)
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
