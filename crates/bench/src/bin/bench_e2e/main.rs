//! `bench_e2e`: the one trusted end-to-end benchmark (see `README.md`
//! beside this file for every metric's definition and every workload's
//! reason).
//!
//! Five workloads, each a fixed panel of operations replayed for
//! identical passes by **one** driver thread with `GMLFM_THREADS=1`, so
//! exactly one thread is runnable at any instant and no thread is made
//! per operation. Every gated timing is built from the minimum over
//! passes of each panel op ([`stats::quiet`]); every reply is
//! checked against a slow oracle after the timed passes ([`oracle`]); a
//! separate traced run (`--trace 1`) records a span around every public
//! call into a layer and reports per-layer metrics ([`trace`]).
//!
//! ```text
//! bench_e2e --workload <name> [--seed <u64>] [--seconds <n>] [--trace 0|1] [--smoke]
//! bench_e2e --all [--seed <u64>] [--smoke]      every workload, one process each
//! bench_e2e --aa <n> [--seed <u64>] [--smoke]   n full sets, spread against each bound
//! ```
//!
//! The last line a run prints is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). It claims no gain; the baseline is
//! whatever it measures on the parent commit.

mod fixture;
mod online_loop;
mod oracle;
mod panel;
mod report;
mod req_topn;
mod stats;
mod trace;
mod train_fit;
mod wire_batch;

use fixture::Scale;
use panel::{run_panel, Layers, PanelRun, Spec, Workload, P_MIN};
use report::{AaRow, RunResult, END_TO_END};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order. Names are permanent.
pub const WORKLOADS: [Spec; 5] = [
    Spec { name: "req_topn_exact", unit: "requests", p_min: P_MIN, build: req_topn::build_exact },
    Spec { name: "req_topn_ivf", unit: "requests", p_min: P_MIN, build: req_topn::build_ivf },
    Spec { name: "wire_batch", unit: "scores", p_min: P_MIN, build: wire_batch::build },
    // Passes here are whole retrain loops / whole epochs: fewer, longer.
    Spec { name: "online_loop", unit: "events", p_min: 4, build: online_loop::build },
    Spec { name: "train_fit", unit: "instances", p_min: 8, build: train_fit::build },
];

/// Seconds one run measures unless `--seconds` says otherwise
/// (`BENCHMARK.json`'s `run_seconds`).
const RUN_SECONDS: f64 = 10.0;
/// How often a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Passes on each side of a traced run (untraced, then traced).
const TRACE_PASSES: usize = 4;

struct Args {
    workload: Option<String>,
    /// `--aa <n>`; `--all` is one set.
    sets: Option<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        sets: None,
        seed: 2024,
        seconds: RUN_SECONDS,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => args.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds =
                    value("a number of seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=120.0).contains(&args.seconds) {
                    return Err(format!("--seconds {} is outside 0..=120", args.seconds));
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => args.sets = Some(value("a number of sets")?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--all" => args.sets = Some(1),
            "--smoke" => args.scale = Scale::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (&args.workload, args.sets) {
        (Some(_), None) | (None, Some(1..)) => Ok(args),
        _ => Err("give exactly one of --workload <name>, --all, --aa <n ≥ 1>".into()),
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: bench_e2e --workload <name> [--seed <u64>] [--seconds <n>] [--trace 0|1] [--smoke]\n\
         \x20      bench_e2e --all | --aa <n> [--seed <u64>] [--seconds <n>] [--smoke]\n\
         workloads: {}",
        names.join(", ")
    )
}

/// The benchmark needs exactly one runnable thread: `GMLFM_THREADS` must
/// be 1 before `Parallelism::auto()` is first resolved. Set it when
/// unset; refuse when it is preset to anything else.
fn pin_one_thread() -> Result<(), String> {
    match std::env::var(gmlfm_par::THREADS_ENV) {
        Ok(preset) if preset.trim() == "1" => Ok(()),
        Ok(preset) => Err(format!(
            "{}={preset} is preset; this benchmark measures one runnable thread and refuses anything but 1",
            gmlfm_par::THREADS_ENV
        )),
        Err(_) => {
            std::env::set_var(gmlfm_par::THREADS_ENV, "1");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_workload(name, &args, process_start),
        None => run_sets(&args, args.sets.unwrap_or(1)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process. `Ok(correct)`; `Err` when the run
/// refused to report.
fn run_workload(name: &str, args: &Args, process_start: Instant) -> Result<bool, String> {
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("no workload {name}\n{}", usage()))?;
    pin_one_thread()?;
    let smoke = args.scale == Scale::Smoke;
    let p_min = if smoke { 2 } else { spec.p_min };
    let seconds = if smoke { 0.0 } else { args.seconds };

    // Set-up, `SETUP_REPEATS` times over: fixture, server, index, panel
    // and one discarded warm-up pass. The first repeat is clocked from
    // process start; `setup_s` is the median.
    let mut setup_tracer = Tracer::on();
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for repeat in 0..if smoke { 1 } else { SETUP_REPEATS } {
        drop(workload.take());
        let start = if repeat == 0 { process_start } else { Instant::now() };
        let mut built = (spec.build)(&mut setup_tracer, args.seed, args.scale);
        let mut warm_up = Vec::new();
        let failed = built.pass(&mut Tracer::off(), &mut warm_up);
        setup_s.push(start.elapsed().as_secs_f64());
        if failed > 0 {
            return Err(format!("{failed} of {} warm-up ops failed", warm_up.len()));
        }
        workload = Some(built);
    }
    let mut workload = workload.ok_or("a workload sets up at least once")?;
    let setup_s = stats::median(&setup_s);

    let result = if args.trace {
        traced_run(spec, workload.as_mut(), args, p_min.min(TRACE_PASSES), seconds, &setup_tracer)?
    } else {
        let run = run_panel(workload.as_mut(), &mut Tracer::off(), p_min, seconds)?;
        let rss_peak_mb = stats::rss_peak_mb();
        header(spec, args, &run);
        let verdict = workload.verify(&mut Layers::new());
        let quiet = stats::quiet(&run.passes);
        let values = [
            setup_s,
            rss_peak_mb,
            quiet.p50 / 1e3,
            workload.units_per_pass() / (quiet.pass / 1e9),
            verdict.quality_at_10,
        ];
        finish(&run, &verdict, END_TO_END.iter().zip(values).map(|(m, v)| (m.name, v, m.unit)).collect())
    };
    drop(workload);

    for (name, value, unit) in &result.metrics {
        println!("{:<16} {name:<32} {value:>18.6} {unit}", spec.name);
    }
    println!("{}", report::result_line(&result));
    Ok(result.correct)
}

/// The `#` line of a run: what ran, where, and how much of it.
fn header(spec: &Spec, args: &Args, run: &PanelRun) {
    println!(
        "# {} unit={} seed={} nproc={} par.threads={} kernel={} passes={} ops={} run_s={:.2} trace={} scale={:?}",
        spec.name,
        spec.unit,
        args.seed,
        stats::nproc(),
        gmlfm_par::Parallelism::auto().get(),
        stats::kernel_release(),
        run.passes.len(),
        run.attempted(),
        run.wall_s,
        u8::from(args.trace),
        args.scale,
    );
}

fn finish(
    run: &PanelRun,
    verdict: &oracle::Verdict,
    metrics: Vec<(&'static str, f64, &'static str)>,
) -> RunResult {
    for note in &verdict.notes {
        println!("# MISMATCH {note}");
    }
    let failed = run.failed + verdict.mismatches;
    RunResult { correct: failed == 0, attempted: run.attempted(), failed, metrics }
}

/// The traced run: a few untraced passes, then as many traced ones, the
/// workload's layer probes, verification, and the trace file. Its
/// metrics are the per-layer ones; end-to-end numbers never come from
/// here.
fn traced_run(
    spec: &Spec,
    workload: &mut dyn Workload,
    args: &Args,
    p_min: usize,
    seconds: f64,
    setup: &Tracer,
) -> Result<RunResult, String> {
    let mut layers = Layers::new();
    let untraced = run_panel(workload, &mut Tracer::off(), p_min, seconds / 4.0)?;
    let mut tracer = Tracer::on();
    let run = run_panel(workload, &mut tracer, p_min, seconds / 4.0)?;
    header(spec, args, &run);

    let quiet = stats::quiet(&run.passes);
    layers.insert("trace.overhead_ratio", quiet.p50 / stats::quiet(&untraced.passes).p50);
    layers.insert("trace.passes", run.passes.len() as f64);
    layers.insert("trace.spans", tracer.spans().len() as f64);
    // What the stages account for: self time of every span under an op,
    // over the ops' own durations. Time-weighted, so a panel of unlike
    // ops (an md epoch, a dnn epoch) is not distorted by a median.
    let (mut in_stages, mut in_ops) = (0u64, 0u64);
    for (span, self_ns) in tracer.spans().iter().zip(tracer.self_times_ns()) {
        match span.parent {
            Some(_) => in_stages += self_ns,
            None => in_ops += span.end_ns - span.start_ns,
        }
    }
    layers.insert("trace.stage_sum_ratio", in_stages as f64 / in_ops.max(1) as f64);

    let samples = run.sorted_samples();
    let tail = stats::high_tail(&samples);
    layers.insert("client.raw_p50_us", stats::median(&samples) / 1e3);
    layers.insert("client.raw_phigh_us", tail.value / 1e3);
    layers.insert("client.raw_phigh_pct", tail.percentile);
    layers.insert("client.samples", samples.len() as f64);
    if tail.low_sample {
        println!("# low_sample client.raw_phigh_us: {} samples, none has ten beyond it", samples.len());
    }
    layers.insert("par.threads", gmlfm_par::Parallelism::auto().get() as f64);
    layers.insert("proc.cpu_ms_per_op", run.cpu_ms / run.attempted().max(1) as f64);

    // Set-up phases, from the spans the fixture builders recorded
    // (median over the set-up repeats).
    for (span, metric) in [
        ("data.generate", "data.generate_s"),
        ("service.catalog_build", "service.catalog_build_s"),
        ("serve.index.build", "serve.index.build_s"),
    ] {
        layers.insert(metric, setup.median_us(span) / 1e6);
    }

    workload.probes(&tracer, &mut layers);
    layers.insert("proc.rss_end_mb", stats::rss_now_mb());
    let verdict = workload.verify(&mut layers);

    let dir = trace_dir();
    let path = dir.join(format!("trace_{}.json", spec.name));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            tracer.write_json(&mut out, spec.name, args.seed)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => println!("# trace written to {}", path.display()),
        Err(e) => return Err(format!("cannot write {}: {e}", path.display())),
    }
    Ok(finish(&run, &verdict, report::layer_metrics(&layers)))
}

/// Where trace files go: `bench_e2e/` under the build's target
/// directory (`CARGO_TARGET_DIR`, else `target`), always inside the
/// checkout and never committed.
fn trace_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("bench_e2e")
}

/// `--all` (one set) and `--aa <n>`: every workload in a process of its
/// own — `setup_s` is clocked from process start and `rss_peak_mb` is a
/// process high-water mark, so workloads must not share one — for
/// `sets` sets, then the spread of every end-to-end metric against its
/// bound. `Ok(false)` when any run was incorrect or any spread exceeded
/// its bound.
fn run_sets(args: &Args, sets: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut rows: Vec<AaRow> = WORKLOADS
        .iter()
        .flat_map(|spec| END_TO_END.iter().map(|metric| AaRow::new(spec.name, metric)))
        .collect();
    let mut all_correct = true;
    for set in 0..sets {
        for spec in &WORKLOADS {
            let mut child = Command::new(&exe);
            child.args(["--workload", spec.name, "--seed", &args.seed.to_string()]);
            child.args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                &u8::from(args.trace).to_string(),
            ]);
            if args.scale == Scale::Smoke {
                child.arg("--smoke");
            }
            let output = child.output().map_err(|e| format!("cannot run {}: {e}", spec.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let parsed = stdout.lines().last().and_then(report::parse_result_line);
            let Some((correct, metrics)) = parsed else {
                return Err(format!("{} (set {set}) exited {} without a result", spec.name, output.status));
            };
            all_correct &= correct && output.status.success();
            for row in rows.iter_mut().filter(|row| row.workload == spec.name) {
                row.values
                    .extend(metrics.iter().filter(|(name, _)| name == row.metric).map(|(_, value)| value));
            }
        }
    }
    if sets > 1 && !args.trace {
        println!("\n# A/A over {sets} sets, seed {}", args.seed);
        print!("{}", report::aa_table(&rows));
        all_correct &= rows.iter().all(AaRow::ok);
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_contracts_command_line_parses() {
        let args = parse("--workload wire_batch --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("wire_batch"));
        assert_eq!((args.seed, args.seconds, args.trace, args.scale), (7, 10.0, true, Scale::Full));
        let args = parse("--all").unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (2024, RUN_SECONDS, false));
        assert_eq!(parse("--aa 3 --smoke").unwrap().sets, Some(3));
    }

    #[test]
    fn ambiguous_or_malformed_command_lines_are_refused() {
        for bad in [
            "",
            "--workload",
            "--workload a --all",
            "--aa 0",
            "--trace 2 --all",
            "--seconds -1 --all",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be refused");
        }
    }

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, spec) in WORKLOADS.iter().enumerate() {
            assert!(spec.name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
            assert!(WORKLOADS[..i].iter().all(|other| other.name != spec.name));
            assert!(spec.p_min >= TRACE_PASSES);
        }
    }
}
