//! `bench-diff` — perf-regression watchdog CLI.
//!
//! ```text
//! bench-diff <baseline.json> <candidate.json> [--verbose]
//! bench-diff --perturb <factor> <in.json> <out.json>
//! ```
//!
//! Compares a fresh bench JSON (`BENCH_kernels.json`, `BENCH_adapters.json`,
//! `results/repro_metrics.json`) against a committed baseline using the
//! per-metric relative thresholds in `tasfar_obs::diff::THRESHOLDS` (times
//! are lower-is-better; a negative threshold marks an in-run ratio such
//! as `speedup_vs_naive`, where higher is better).
//! Exit codes: 0 when no watched metric regressed, 1 on regression,
//! 2 on usage/parse errors.
//!
//! `--perturb` multiplies every time metric by `factor` and writes the
//! result — used by verify.sh to synthesise a regression and prove the gate
//! actually fires, without depending on external JSON tooling.

use std::process::ExitCode;

use tasfar_nn::json::Json;
use tasfar_obs::diff;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-diff <baseline.json> <candidate.json> [--verbose]\n       \
         bench-diff --perturb <factor> <in.json> <out.json>"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("--perturb") {
        let [_, factor, input, output] = &args[..] else {
            return usage();
        };
        let Ok(factor) = factor.parse::<f64>() else {
            eprintln!("bench-diff: bad perturbation factor {factor}");
            return usage();
        };
        let doc = match load(input) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("bench-diff: {e}");
                return ExitCode::from(2);
            }
        };
        let perturbed = diff::perturb(&doc, factor);
        if let Err(e) = std::fs::write(output, format!("{perturbed}\n")) {
            eprintln!("bench-diff: cannot write {output}: {e}");
            return ExitCode::from(2);
        }
        println!("bench-diff: wrote {output} with time metrics x{factor}");
        return ExitCode::SUCCESS;
    }

    let mut verbose = false;
    let mut paths: Vec<&String> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--verbose" => verbose = true,
            flag if flag.starts_with("--") => {
                eprintln!("bench-diff: unknown flag {flag}");
                return usage();
            }
            _ => paths.push(arg),
        }
    }
    let [baseline_path, candidate_path] = paths[..] else {
        return usage();
    };

    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };

    let findings = diff::diff(&baseline, &candidate);
    if findings.is_empty() {
        eprintln!("bench-diff: no watched metrics found in {baseline_path}; nothing to compare");
        return ExitCode::from(2);
    }

    let regressions = diff::regression_count(&findings);
    for finding in &findings {
        if finding.regression {
            eprintln!("bench-diff: {}", finding.describe());
        } else if verbose {
            println!("bench-diff: {}", finding.describe());
        }
    }
    println!(
        "bench-diff: {} metrics compared, {} regression(s) ({} vs {})",
        findings.len(),
        regressions,
        candidate_path,
        baseline_path
    );
    if regressions > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
