//! Traced decompositions of the two service units,
//! `serve::analyze::response_body` and `serve::fixer::fix_body`, built
//! from the same public calls those functions make, each call inside a
//! span. The decomposition must reproduce the unit's bytes exactly; the
//! traced run checks that before it reports a single layer.

use crate::trace::Tracer;
use llm::{feature_verdict, AnalyzedKernel, ModelKind};
use serve::analyze::{AnalyzeResponse, WireModel, WirePairs, WireVerdicts};
use serve::fixer::{FixResponse, WireCertificate, WireFix};
use xcheck::{Verdicts, DEFAULT_SEEDS};

fn op_word(kind: depend::AccessKind) -> &'static str {
    match kind {
        depend::AccessKind::Read => "read",
        depend::AccessKind::Write => "write",
    }
}

fn parse(t: &mut Tracer, code: &str) -> (Option<minic::TranslationUnit>, Option<String>) {
    match t.span("minic.parse", |_| minic::parse(code)) {
        Ok(unit) => (Some(unit), None),
        Err(e) => (None, Some(e.to_string())),
    }
}

/// `response_body(source)`, one span per call, under a `request` span.
pub fn analyze(t: &mut Tracer, source: &str) -> String {
    t.span("request", |t| analyze_unit(t, source))
}

fn analyze_unit(t: &mut Tracer, source: &str) -> String {
    let trimmed = t.span("minic.trim", |_| minic::trim_comments(source));
    let (ast, parse_error) = parse(t, &trimmed.code);
    let artifact = t.span("llm.artifact", |_| {
        AnalyzedKernel::from_parsed(&trimmed.code, ast)
    });
    let (models, llm_verdict) = t.span("llm.verdict", |_| {
        let models: Vec<WireModel> = ModelKind::ALL
            .iter()
            .map(|k| WireModel {
                model: k.short().to_string(),
                verdict: feature_verdict(&artifact.features, *k),
            })
            .collect();
        (models, feature_verdict(&artifact.features, ModelKind::Gpt4))
    });
    let (verdicts, static_races, dynamic_races, var_pairs) = match &artifact.ast {
        Some(unit) => {
            let st = t.span("racecheck.check", |_| racecheck::check(unit));
            let prog = t.span("hbsan.lower", |_| artifact.oracle_program());
            let sweep = t.span("hbsan.sweep", |_| {
                hbsan::check_adversarial_compiled(
                    unit,
                    prog,
                    &hbsan::Config::default(),
                    &DEFAULT_SEEDS,
                )
            });
            t.span("serve.assemble", |_| {
                let (dynamic, dynamic_races) = match sweep {
                    Ok(s) => (
                        Some(s.report.has_race()),
                        s.report
                            .races
                            .iter()
                            .take(5)
                            .map(hbsan::DynRace::describe)
                            .collect(),
                    ),
                    Err(_) => (None, Vec::new()),
                };
                let v = Verdicts {
                    stat: st.has_race(),
                    dynv: dynamic,
                    llm: llm_verdict,
                };
                let pairs = st.races.first().map(|r| WirePairs {
                    variable_names: vec![r.first.var.clone(), r.second.var.clone()],
                    line_numbers: vec![r.first.span.line(), r.second.span.line()],
                    operations: vec![op_word(r.first.kind).into(), op_word(r.second.kind).into()],
                });
                let verdicts = WireVerdicts {
                    static_verdict: Some(v.stat),
                    dynamic: v.dynv,
                    llm: v.llm,
                    consensus: v.consensus(),
                };
                (
                    verdicts,
                    st.races.iter().map(racecheck::Race::describe).collect(),
                    dynamic_races,
                    pairs,
                )
            })
        }
        None => (
            WireVerdicts {
                static_verdict: None,
                dynamic: None,
                llm: llm_verdict,
                consensus: None,
            },
            Vec::new(),
            Vec::new(),
            None,
        ),
    };
    let resp = AnalyzeResponse {
        tokens: artifact.tokens.len(),
        parse_ok: parse_error.is_none(),
        parse_error,
        verdicts,
        static_races,
        dynamic_races,
        models,
        var_pairs,
    };
    let body = t.span("serve.serialize", |_| {
        serde_json::to_string(&resp).expect("response serializes")
    });
    t.span("serve.drop", |_| drop((artifact, resp, trimmed)));
    body
}

/// What one repair did, for the repair layer's ratios.
#[derive(Debug, Default, Clone, Copy)]
pub struct RepairCounts {
    /// Kernels some detector flagged (repair attempted).
    pub flagged: usize,
    /// Candidates certified across them.
    pub candidates: usize,
    /// Kernels fixed.
    pub fixed: usize,
}

/// `fix_body(source)`, one span per call, plus a `shadow` span (outside
/// the unit) re-running the detection `repair::fix_artifact` repeats, so
/// repair's own time can be separated from it.
pub fn fix(t: &mut Tracer, source: &str, counts: &mut RepairCounts) -> String {
    let (body, artifact) = t.span("request", |t| {
        let trimmed = t.span("minic.trim", |_| minic::trim_comments(source));
        let (ast, _) = parse(t, &trimmed.code);
        let artifact = t.span("llm.artifact", |_| {
            AnalyzedKernel::from_parsed(&trimmed.code, ast)
        });
        t.span("hbsan.lower", |_| artifact.oracle_program().is_some());
        let report = t.span("repair.fix", |_| {
            repair::fix_artifact(&artifact, &repair::RepairConfig::default())
        });
        let resp = t.span("serve.assemble", |_| fix_response(&report));
        if report.outcome.tag() == "fixed" || report.outcome.tag() == "unfixed" {
            counts.flagged += 1;
            counts.candidates += report.candidates_tried;
            counts.fixed += usize::from(report.fix().is_some());
        }
        let body = t.span("serve.serialize", |_| {
            serde_json::to_string(&resp).expect("response serializes")
        });
        t.span("serve.drop", |_| drop((resp, report, trimmed)));
        (body, artifact)
    });
    if let Some(unit) = artifact.ast.as_ref() {
        t.span("shadow", |t| {
            t.span("racecheck.check", |_| racecheck::check(unit));
            t.span("hbsan.sweep", |_| {
                hbsan::check_adversarial_compiled(
                    unit,
                    artifact.oracle_program(),
                    &hbsan::Config::default(),
                    &DEFAULT_SEEDS,
                )
                .is_ok()
            });
        });
    }
    body
}

fn fix_response(report: &repair::FixReport) -> FixResponse {
    let verdicts = report.verdicts.as_ref().map(|v| WireVerdicts {
        static_verdict: Some(v.stat),
        dynamic: v.dynv,
        llm: v.llm,
        consensus: v.consensus(),
    });
    let fix = report.fix().map(|f| WireFix {
        edits: f.edits.iter().map(repair::edit_label).collect(),
        patched_code: f.patched_code.clone(),
        patch: f.patch.clone(),
        patch_lines: f.patch_lines,
        certificate: WireCertificate {
            racecheck_clean: f.certificate.racecheck_clean,
            hbsan_seeds: f.certificate.hbsan_seeds.clone(),
            equivalent_seeds: f.certificate.equivalent_seeds.clone(),
            scratch: f.certificate.scratch.clone(),
            surrogate_clean: f.certificate.surrogate_clean,
        },
    });
    FixResponse {
        parse_ok: report.verdicts.is_some(),
        outcome: report.outcome.tag().to_string(),
        verdicts,
        candidates_tried: report.candidates_tried,
        fix,
    }
}

/// The adversarial sweep split into execution and happens-before
/// analysis: each seed's `hbsan::run_oracle` and the `hbsan::analyze`
/// of its trace in their own spans, with the sweep's own rule that a
/// schedule-insensitive first run ends it. Seeds run one after another
/// here (the sweep fans the later seeds over the default workers).
/// Returns whether the kernel lowered.
pub fn sweep_split(t: &mut Tracer, source: &str) -> Option<bool> {
    let trimmed = minic::trim_comments(source);
    let unit = minic::parse(&trimmed.code).ok()?;
    let artifact = AnalyzedKernel::from_parsed(&trimmed.code, Some(unit));
    let unit = artifact.ast.as_ref().expect("parsed above");
    let prog = artifact.oracle_program();
    for (i, &seed) in DEFAULT_SEEDS.iter().enumerate() {
        let cfg = hbsan::Config {
            seed,
            ..hbsan::Config::default()
        };
        let run = t.span("hbsan.exec", |_| hbsan::run_oracle(unit, prog, &cfg));
        let Ok(out) = run.output else { break };
        t.span("hbsan.hb", |_| hbsan::analyze(&out.trace));
        if i == 0 && !out.schedule_sensitive {
            break;
        }
    }
    Some(prog.is_some())
}
