//! Quickstart: the paper's Figure-1 pipeline end to end on one snippet.
//!
//!     cargo run --release -p racellm --example quickstart

use racellm::Pipeline;

fn main() {
    let source = r#"
/*
A loop with loop-carried anti-dependence (DRB001-style).
*/
#include <stdio.h>
int main(int argc, char* argv[])
{
  int i;
  int len = 1000;
  int a[1000];
  for (int k = 0; k < len; k++)
    a[k] = k;
  #pragma omp parallel for
  for (i = 0; i < len - 1; i++)
    a[i] = a[i + 1] + 1;
  printf("a[500]=%d\n", a[500]);
  return 0;
}
"#;

    let pipeline = Pipeline::new();

    println!("Analyzing the snippet with every tool in the workspace:\n");
    let report = pipeline.analyze(source).expect("snippet parses");

    println!("tokens (trimmed): {}", report.tokens);
    println!("\nstatic detector : race = {}", report.static_verdict);
    for r in &report.static_races {
        println!("  {r}");
    }
    println!("\ndynamic checker : race = {}", report.dynamic_verdict);
    for r in report.dynamic_races.iter().take(3) {
        println!("  {r}");
    }
    println!("\nLLM surrogates (feature-based, p1-style):");
    for (model, text, verdict) in &report.llm_answers {
        println!("  {model:4} → {:?}: {text}", verdict);
    }

    println!("\nBuilding the corpus, DRB-ML and the calibrated surrogates…");
    println!("Calibrated benchmark numbers (paper Table 3, p1 column):");
    let baseline = pipeline.baseline();
    println!("  Ins  : {baseline}");
    for kind in racellm::llm::ModelKind::ALL {
        let c = pipeline.detection(kind, racellm::llm::PromptStrategy::P1);
        println!("  {:4} : {c}", kind.short());
    }
}
