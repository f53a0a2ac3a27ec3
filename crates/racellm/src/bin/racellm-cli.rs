//! `racellm-cli` — command-line front door.
//!
//! ```text
//! racellm-cli analyze <file.c>            run every detector on a C/OpenMP file
//!                                         (exit 1: a detector saw a race, 2: unparseable)
//! racellm-cli modality <file.c> <kind>    print source|ast|depgraph|cfg
//! racellm-cli dataset <out_dir>           export the DRB-ML JSON dataset
//! racellm-cli corpus                      list the 201 corpus kernels
//! racellm-cli xcheck --smoke [seed]       deterministic differential smoke gate
//! racellm-cli xcheck report [seed]        full sweep with shrunk disagreement triage
//! racellm-cli fix <file.c>                repair a racy kernel, print certified patch
//! racellm-cli fix --corpus                corpus-wide repair-rate table
//! racellm-cli fix --smoke                 deterministic repair smoke gate
//! racellm-cli serve [--smoke] [opts]      cached HTTP detection service
//! ```

use racellm::{drb_gen, drb_ml, llm, repair, serve, xcheck, Pipeline};

fn usage() -> ! {
    eprintln!(
        "usage:\n  racellm-cli analyze <file.c>\n  racellm-cli modality <file.c> <source|ast|depgraph|cfg>\n  racellm-cli dataset <out_dir>\n  racellm-cli corpus\n  racellm-cli xcheck --smoke [seed]\n  racellm-cli xcheck report [seed]\n  racellm-cli fix <file.c> | --corpus | --smoke\n  racellm-cli serve [--smoke] [--addr HOST:PORT] [--workers N] [--queue-cap N]\n                    [--cache-cap N] [--deadline-ms N]"
    );
    std::process::exit(2);
}

/// Print usage and exit 2 when `args` holds more than `max` words: a
/// subcommand never ignores trailing arguments it does not take.
fn at_most(args: &[String], max: usize) {
    if args.len() > max {
        usage();
    }
}

/// Parse `--flag value` pairs from `args`, erroring on unknown flags.
fn parse_flags(args: &[String], allowed: &[&str]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if !allowed.contains(&flag) {
            eprintln!("unknown flag: {flag}");
            usage();
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("{flag} needs a value");
            usage();
        };
        out.push((flag.to_string(), value.clone()));
        i += 2;
    }
    out
}

fn flag_num<T: std::str::FromStr>(flags: &[(String, String)], name: &str, default: T) -> T {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for {name}: {v}");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

fn flag_str(flags: &[(String, String)], name: &str) -> Option<String> {
    flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.clone())
}

fn cmd_serve(args: &[String]) -> ! {
    if args.first().map(String::as_str) == Some("--smoke") {
        match serve::smoke::run() {
            Ok(summary) => {
                print!("{summary}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("serve smoke FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    let flags = parse_flags(
        args,
        &["--addr", "--workers", "--queue-cap", "--cache-cap", "--deadline-ms"],
    );
    let defaults = serve::ServeConfig::default();
    let cfg = serve::ServeConfig {
        addr: flag_str(&flags, "--addr").unwrap_or(defaults.addr.clone()),
        workers: flag_num(&flags, "--workers", defaults.workers),
        queue_capacity: flag_num(&flags, "--queue-cap", defaults.queue_capacity),
        cache_capacity: flag_num(&flags, "--cache-cap", defaults.cache_capacity),
        deadline_ms: flag_num(&flags, "--deadline-ms", defaults.deadline_ms),
        ..defaults
    };
    match serve::server::start(cfg) {
        Ok(handle) => {
            println!("racellm-serve listening on http://{}", handle.addr());
            println!("  POST /v1/analyze   GET /healthz   GET /metrics");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Err(e) => {
            eprintln!("serve failed to start: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_fix(args: &[String]) -> ! {
    at_most(args, 1);
    match args.first().map(String::as_str) {
        Some("--smoke") => match repair::smoke(&racellm::corpus_sample(16)) {
            Ok(summary) => {
                print!("{summary}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("repair smoke FAILED: {e}");
                std::process::exit(1);
            }
        },
        Some("--corpus") => {
            let summary = racellm::sweep_corpus(par::default_workers());
            print!("{}", repair::render_table(&summary));
            std::process::exit(0);
        }
        Some(path) => {
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let trimmed = racellm::minic::trim_comments(&src);
            let r = repair::fix(&trimmed.code);
            if let Some(v) = &r.verdicts {
                println!("detect  : {}", v.summary());
            }
            println!("outcome : {} ({} candidate(s) certified)", r.outcome.tag(), r.candidates_tried);
            match r.fix() {
                Some(f) => {
                    let edits: Vec<String> = f.edits.iter().map(repair::edit_label).collect();
                    println!("edits   : {}", edits.join("+"));
                    println!(
                        "cert    : racecheck clean, hbsan clean on seeds {:?}, output-equivalent on seeds {:?}{}",
                        f.certificate.hbsan_seeds,
                        f.certificate.equivalent_seeds,
                        if f.certificate.scratch.is_empty() {
                            String::new()
                        } else {
                            format!(" (scratch: {})", f.certificate.scratch.join(", "))
                        }
                    );
                    println!(
                        "surrogate: {}",
                        if f.certificate.surrogate_clean { "clean" } else { "still suspicious" }
                    );
                    print!("{}", f.patch);
                    std::process::exit(0);
                }
                None => std::process::exit(match r.outcome {
                    repair::Outcome::CleanAlready => 0,
                    repair::Outcome::Unparseable => 2,
                    _ => 1,
                }),
            }
        }
        None => usage(),
    }
}

/// Accept decimal or `0x…` hex seeds.
fn parse_seed(s: &str) -> u64 {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("bad seed: {s}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => {
            at_most(&args, 2);
            let path = args.get(1).unwrap_or_else(|| usage());
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let pipeline = Pipeline::new();
            let trimmed = racellm::minic::trim_comments(&src);
            match pipeline.analyze(&src) {
                Ok(r) => {
                    println!("tokens: {}", r.tokens);
                    // Compiler-style static diagnostics against the
                    // trimmed code (what the line numbers refer to).
                    if let Ok(report) = racellm::racecheck::check_source(&trimmed.code) {
                        println!("{}", report.render(&trimmed.code));
                    }
                    println!("static  : race = {}", r.static_verdict);
                    for race in &r.static_races {
                        println!("  {race}");
                    }
                    println!("dynamic : race = {}", r.dynamic_verdict);
                    for race in r.dynamic_races.iter().take(5) {
                        println!("  {race}");
                    }
                    for (m, text, _) in &r.llm_answers {
                        println!("{m:4}: {text}");
                    }
                    std::process::exit(i32::from(r.static_verdict || r.dynamic_verdict));
                }
                Err(e) => {
                    eprintln!("parse error: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("modality") => {
            at_most(&args, 3);
            let path = args.get(1).unwrap_or_else(|| usage());
            let kind = match args.get(2).map(String::as_str) {
                Some("source") => llm::Modality::SourceText,
                Some("ast") => llm::Modality::AstSexpr,
                Some("depgraph") => llm::Modality::DependenceGraph,
                Some("cfg") => llm::Modality::ControlFlowGraph,
                _ => usage(),
            };
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let trimmed = racellm::minic::trim_comments(&src);
            println!("{}", llm::render_modality(&trimmed.code, kind));
        }
        Some("dataset") => {
            at_most(&args, 2);
            let out = std::path::PathBuf::from(args.get(1).unwrap_or_else(|| usage()));
            drb_ml::Dataset::generate().export_dir(&out).unwrap_or_else(|e| {
                eprintln!("export failed: {e}");
                std::process::exit(1);
            });
            println!("exported 201 DRB-ML entries to {}", out.display());
        }
        Some("xcheck") => {
            at_most(&args, 3);
            let mode = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let corpus = racellm::corpus_sample(17);
            let seed = match args.get(2) {
                Some(s) => parse_seed(s),
                None => xcheck::XConfig::default().seed,
            };
            match mode {
                "--smoke" => match xcheck::smoke(seed, &corpus) {
                    Ok(r) => {
                        println!(
                            "xcheck smoke ok: {} kernels + {} flips, {} sem-mutants, {} disagreements ({} dyn errors)",
                            r.generated,
                            r.flips,
                            r.sem_mutants,
                            r.disagreements.len(),
                            r.dyn_errors
                        );
                        print!("{}", r.matrix.render());
                    }
                    Err(e) => {
                        eprintln!("xcheck smoke FAILED:\n{e}");
                        std::process::exit(1);
                    }
                },
                "report" => {
                    let cfg = xcheck::XConfig { seed, ..Default::default() };
                    print!("{}", xcheck::render_report(&xcheck::run(&cfg, &corpus)));
                }
                _ => usage(),
            }
        }
        Some("fix") => cmd_fix(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("corpus") => {
            at_most(&args, 1);
            for k in drb_gen::corpus() {
                println!(
                    "{:40} {} {:18} {}",
                    k.name,
                    if k.race { "yes" } else { "no " },
                    k.category.as_str(),
                    k.description
                );
            }
        }
        _ => usage(),
    }
}
