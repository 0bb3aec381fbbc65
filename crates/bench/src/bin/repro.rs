//! `repro` — regenerate the PDSI report's figures and tables.
//!
//! ```text
//! repro                        # list experiments
//! repro fig8                   # one experiment
//! repro all                    # everything (what EXPERIMENTS.md records)
//! repro golden                 # print the headline-numbers JSON
//! repro --metrics out.json all # also dump every metric series as JSON
//! repro --metrics - faults     # dump to stdout (after the reports)
//! repro trace plfs_n1 --out trace.json  # capture a causal trace
//! repro genlog n1-strided --ranks 64 --out ckpt.oplog   # emit an op log
//! repro replay ckpt.oplog --mode asap                   # drive it
//! repro replay                 # the gated replay experiment itself
//! ```
//!
//! With `--metrics`, every experiment's internal series (bandwidths,
//! per-OSD seek/rotate/transfer splits, retry/fault counters, ...) are
//! collected under an `exp=<id>` label, printed as an aligned table,
//! and written to the given path as JSON (`-` for stdout).
//!
//! Each experiment runs once. For the seven with machine-readable
//! results (`openscale`, `readscale`, `integrity`, `replay`,
//! `monitorscale`, `ingestscale`, `dedupscale`) the report, the
//! `BENCH_*.json` file and the gate verdict all come from that run.
//! Every verdict prints after the last experiment, and `repro` exits 1
//! if any gate failed. Gates always run; wall-clock gates expect
//! `--release`.
//!
//! `repro trace <exp>` reruns a scenario with per-I/O causal tracing
//! on, prints the critical-path attribution table, and (with `--out`)
//! writes the span forest as Chrome trace-event JSON loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.

use std::io::Write;

/// `repro trace <exp> [--out <path>]`: capture, attribute, export.
fn run_trace_command(mut args: impl Iterator<Item = String>) -> ! {
    let mut exp: Option<String> = None;
    let mut out_path: Option<String> = None;
    while let Some(arg) = args.next() {
        if arg == "--out" {
            match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("--out needs a path argument");
                    std::process::exit(2);
                }
            }
        } else if exp.is_none() {
            exp = Some(arg);
        } else {
            eprintln!("trace takes one experiment id (got extra {arg:?})");
            std::process::exit(2);
        }
    }
    let Some(exp) = exp else {
        eprintln!("usage: repro trace <exp> [--out <path>]\n\ntrace experiments:");
        for (id, desc) in pdsi_bench::TRACE_EXPERIMENTS {
            eprintln!("  {id:<10} {desc}");
        }
        std::process::exit(2);
    };
    let Some(run) = pdsi_bench::run_trace(&exp) else {
        eprintln!("unknown trace experiment {exp:?}; run `repro trace` for the list");
        std::process::exit(2);
    };
    print!("{}", run.render());
    println!("({} spans captured)", run.spans.len());
    if let Some(path) = out_path {
        let json = obs::json::pretty(&obs::trace::to_chrome(&run.spans));
        // Self-check: the export must round-trip through our own
        // parser before we call it a valid trace file.
        if let Err(e) = obs::json::parse(&json) {
            eprintln!("internal error: chrome export is not valid JSON: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!("(chrome trace written to {path}; open in https://ui.perfetto.dev)");
    }
    std::process::exit(0);
}

/// `repro genlog <scenario> [--ranks N] [--ops N] [--size SPEC]
/// [--arrival SPEC] [--seed N] [--out <path>]`: emit an op log.
fn run_genlog_command(mut args: impl Iterator<Item = String>) -> ! {
    use workloads::gen::{generate, GenConfig, Scenario, SCENARIOS};
    use workloads::sample::{ArrivalDist, SizeDist};

    let usage = || -> ! {
        eprintln!(
            "usage: repro genlog <scenario> [--ranks N] [--ops N] [--size SPEC]\n       \
             [--arrival SPEC] [--seed N] [--out <path>]\n\n\
             size specs:    fixed:N | uniform:MIN:MAX | lognormal:MEDIAN:SIGMA:MIN:MAX\n\
             arrival specs: immediate | fixed:NS | poisson:MEAN_NS | burst:K:INTRA_NS:INTER_NS\n\n\
             scenarios:"
        );
        for (name, _) in SCENARIOS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    };
    let die = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let mut scenario: Option<Scenario> = None;
    let mut cfg = GenConfig::default();
    let mut out_path: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut flag = |name: &str| -> String {
            args.next().unwrap_or_else(|| die(format!("{name} needs an argument")))
        };
        match arg.as_str() {
            "--ranks" => {
                cfg.ranks = flag("--ranks").parse().unwrap_or_else(|_| die("bad --ranks".into()))
            }
            "--ops" => {
                cfg.ops_per_rank = flag("--ops").parse().unwrap_or_else(|_| die("bad --ops".into()))
            }
            "--seed" => {
                cfg.seed = flag("--seed").parse().unwrap_or_else(|_| die("bad --seed".into()))
            }
            "--size" => cfg.size = SizeDist::parse_spec(&flag("--size")).unwrap_or_else(|e| die(e)),
            "--arrival" => {
                cfg.arrival = ArrivalDist::parse_spec(&flag("--arrival")).unwrap_or_else(|e| die(e))
            }
            "--out" => out_path = Some(flag("--out")),
            name if scenario.is_none() && !name.starts_with('-') => {
                scenario = Some(
                    Scenario::by_name(name)
                        .unwrap_or_else(|| die(format!("unknown scenario {name:?}"))),
                )
            }
            other => die(format!("unknown genlog argument {other:?}")),
        }
    }
    let Some(scenario) = scenario else { usage() };
    let log = generate(scenario, &cfg);
    let text = log.to_text();
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "wrote {} ops ({} ranks, {} B written, {} B read) to {path}",
                log.ops.len(),
                log.ranks,
                log.write_bytes(),
                log.read_bytes()
            );
        }
        None => print!("{text}"),
    }
    std::process::exit(0);
}

/// `repro replay <log> [--mode M] [--backend SPEC] [--speedup F]
/// [--serial-reads] [--readahead N] [--verify on|off] [--out <path>]`:
/// drive an op log against a backend and report what happened.
fn run_replay_command(mut args: impl Iterator<Item = String>) -> ! {
    use plfs::replay::{ReplayMode, ReplayOptions};

    let die = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let mut log_path: Option<String> = None;
    let mut backend_spec = "mem".to_string();
    let mut opts = ReplayOptions::default();
    let mut out_path: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut flag = |name: &str| -> String {
            args.next().unwrap_or_else(|| die(format!("{name} needs an argument")))
        };
        match arg.as_str() {
            "--mode" => {
                let m = flag("--mode");
                opts.mode = ReplayMode::by_name(&m).unwrap_or_else(|| {
                    die(format!("unknown mode {m:?} (asap | sequential | timing-faithful)"))
                });
            }
            "--backend" => backend_spec = flag("--backend"),
            "--speedup" => {
                opts.speedup =
                    flag("--speedup").parse().unwrap_or_else(|_| die("bad --speedup".into()))
            }
            "--serial-reads" => opts.serial_reads = true,
            "--readahead" => {
                opts.readahead = Some(
                    flag("--readahead").parse().unwrap_or_else(|_| die("bad --readahead".into())),
                )
            }
            "--verify" => match flag("--verify").as_str() {
                "on" => opts.verify = Some(true),
                "off" => opts.verify = Some(false),
                v => die(format!("bad --verify {v:?} (want on|off)")),
            },
            "--out" => out_path = Some(flag("--out")),
            name if log_path.is_none() && !name.starts_with('-') => log_path = Some(arg),
            other => die(format!("unknown replay argument {other:?}")),
        }
    }
    let Some(log_path) = log_path else {
        die("usage: repro replay <log> [--mode M]\n       \
             [--backend mem|dir:PATH|faulty[:SEED]|chunked[:SPEC]]\n       \
             [--speedup F] [--serial-reads] [--readahead N] [--verify on|off] [--out <path>]"
            .into())
    };
    let text = std::fs::read_to_string(&log_path).unwrap_or_else(|e| {
        eprintln!("cannot read {log_path}: {e}");
        std::process::exit(1);
    });
    let log = workloads::oplog::OpLog::parse(&text).unwrap_or_else(|e| {
        eprintln!("{log_path}: bad op log: {e}");
        std::process::exit(1);
    });
    let backend = pdsi_bench::backend_from_spec(&backend_spec).unwrap_or_else(|e| die(e));
    match pdsi_bench::drive_log(&log, backend, &opts) {
        Ok((report, replayed)) => {
            print!("{report}");
            if let Some(path) = out_path {
                if let Err(e) = std::fs::write(&path, replayed.to_text()) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                println!("(replayed log with observed results written to {path})");
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// `repro monitor <scenario> [--out <path>] [--prom <path>]`: drive a
/// monitoring scenario, print its per-frame dashboard and any fired
/// alerts, and optionally write the flight-recorder timeline (JSONL)
/// and the Prometheus text exposition of the last frame.
fn run_monitor_command(mut args: impl Iterator<Item = String>) -> ! {
    let die = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let mut scenario: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut flag = |name: &str| -> String {
            args.next().unwrap_or_else(|| die(format!("{name} needs an argument")))
        };
        match arg.as_str() {
            "--out" => out_path = Some(flag("--out")),
            "--prom" => prom_path = Some(flag("--prom")),
            name if scenario.is_none() && !name.starts_with('-') => scenario = Some(arg),
            other => die(format!("unknown monitor argument {other:?}")),
        }
    }
    let Some(scenario) = scenario else {
        eprintln!("usage: repro monitor <scenario> [--out <timeline.jsonl>] [--prom <path>]\n\nscenarios:");
        for (id, desc) in pdsi_bench::MONITOR_SCENARIOS {
            eprintln!("  {id:<14} {desc}");
        }
        std::process::exit(2);
    };
    let run = pdsi_bench::run_monitor(&scenario).unwrap_or_else(|e| die(e));
    print!("{}", run.dashboard);
    if run.alerts.is_empty() {
        println!("no alerts fired");
    } else {
        print!("{}", obs::slo::render_alerts(&run.alerts));
    }
    println!("{}", run.summary);
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &run.timeline) {
            eprintln!("cannot write timeline to {path}: {e}");
            std::process::exit(1);
        }
        println!("(flight-recorder timeline written to {path})");
    }
    if let Some(path) = prom_path {
        let Some(prom) = run.prometheus else {
            die(format!("scenario {scenario:?} has no Prometheus exposition"))
        };
        if let Err(e) = std::fs::write(&path, &prom) {
            eprintln!("cannot write Prometheus text to {path}: {e}");
            std::process::exit(1);
        }
        println!("(Prometheus exposition written to {path})");
    }
    std::process::exit(0);
}

fn main() {
    let mut metrics_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let first = argv.first().cloned();
    match first.as_deref() {
        Some("trace") => run_trace_command(argv.into_iter().skip(1)),
        Some("genlog") => run_genlog_command(argv.into_iter().skip(1)),
        // `repro replay` alone runs the gated experiment (handled by
        // the normal id path below); with any further argument it
        // becomes the log-driving subcommand.
        Some("replay") if argv.len() > 1 => run_replay_command(argv.into_iter().skip(1)),
        Some("monitor") => run_monitor_command(argv.into_iter().skip(1)),
        _ => {}
    }
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--metrics" {
            match args.next() {
                Some(p) => metrics_path = Some(p),
                None => {
                    eprintln!("--metrics needs a path argument ('-' for stdout)");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(arg);
        }
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if ids.is_empty() {
        let _ = writeln!(
            out,
            "usage: repro [--metrics <path>|-] <experiment-id>|all|golden\n       \
             repro trace <exp> [--out <path>]\n       \
             repro genlog <scenario> [--ranks N] [--ops N] [--size SPEC] [--arrival SPEC] [--out <path>]\n       \
             repro replay <log> [--mode M] [--backend SPEC] [--out <path>]\n       \
             repro monitor <scenario> [--out <timeline.jsonl>] [--prom <path>]\n\nexperiments:"
        );
        for exp in pdsi_bench::EXPERIMENTS {
            let _ = writeln!(out, "  {:<10} {}", exp.id, exp.desc);
        }
        let _ = writeln!(out, "\ntrace experiments:");
        for (id, desc) in pdsi_bench::TRACE_EXPERIMENTS {
            let _ = writeln!(out, "  {id:<10} {desc}");
        }
        let _ = writeln!(
            out,
            "\n`repro genlog` with no scenario lists scenarios and spec grammars;\n\
             `repro replay <log> --mode timing-faithful --speedup F` paces to the log."
        );
        return;
    }

    let reg = obs::Registry::new();
    let mut verdicts = Vec::new();
    for arg in &ids {
        let selected = match arg.as_str() {
            "all" => pdsi_bench::EXPERIMENTS.iter().collect(),
            "golden" => {
                let _ = writeln!(out, "{}", obs::json::pretty(&pdsi_bench::headline_numbers()));
                continue;
            }
            id => match pdsi_bench::experiment(id) {
                Some(exp) => vec![exp],
                None => {
                    eprintln!("unknown experiment {arg:?}; run with no args for the list");
                    std::process::exit(2);
                }
            },
        };
        for exp in selected {
            let outcome = exp.run_observed(&reg);
            let _ = write!(out, "{}", outcome.report);
            if let Some((file, json)) = outcome.bench {
                if let Err(e) = std::fs::write(file, obs::json::pretty(&json)) {
                    eprintln!("cannot write {file}: {e}");
                    std::process::exit(1);
                }
                let _ = writeln!(out, "({} data written to {file})", exp.id);
            }
            verdicts.extend(outcome.gate);
        }
    }

    if let Some(path) = metrics_path {
        let _ = writeln!(out, "\n== metrics ({} series) ==", reg.series_count());
        let _ = write!(out, "{}", reg.render_table());
        let json = reg.to_json();
        if path == "-" {
            let _ = writeln!(out, "{json}");
        } else if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write metrics to {path}: {e}");
            std::process::exit(1);
        } else {
            let _ = writeln!(out, "(written to {path})");
        }
    }

    // Every gate's verdict, after all experiments have run, so one
    // failure never hides another.
    let mut failed = false;
    for verdict in verdicts {
        match verdict {
            Ok(msg) => {
                let _ = writeln!(out, "({msg})");
            }
            Err(msg) => {
                let _ = out.flush();
                eprintln!("{msg}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
