//! Demo-scale acceptance test: the paper's Figure-4 ordering.
//!
//! This trains the full demo-scale pipeline (GRU-48, 800 epochs; 44 s of
//! wall clock in release on a 2-vCPU AVX-512 Xeon), so it is `#[ignore]`d
//! by default. Run explicitly with:
//!
//! ```text
//! cargo test --release --test acceptance_demo_scale -- --ignored
//! ```
//!
//! It asserts the qualitative claims of the paper's evaluation (§4.3.2):
//! every policy beats the no-migration default; the handcrafted FSM recovers
//! a double-digit share of the slack; the DRL agent beats the handcrafted
//! FSM; and the extracted white-box FSM stays within a few percent of its
//! DRL teacher while also beating the handcrafted FSM.

use lahd::core::{compare_policies, Pipeline, PipelineConfig};

#[test]
#[ignore = "trains the demo-scale pipeline (~45 s in release); run with -- --ignored"]
fn figure4_ordering_reproduces_at_demo_scale() {
    let config = PipelineConfig::demo();
    let artifacts = Pipeline::new(config.clone()).run();

    let c = compare_policies(&config, &artifacts, &artifacts.real_traces, 999);

    let d = c.mean_makespan(0);
    let h = c.mean_makespan(1);
    let g = c.mean_makespan(2);
    let f = c.mean_makespan(3);
    eprintln!("means: default={d:.1} handcrafted={h:.1} gru={g:.1} fsm={f:.1}");

    // Paper §4.3.2, shape claims.
    assert!(h < d, "handcrafted ({h:.1}) must beat default ({d:.1})");
    assert!(g < d && f < d, "learned policies must beat default");
    assert!(
        (d - h) / d > 0.10,
        "handcrafted should recover a double-digit reduction, got {:.1}%",
        (d - h) / d * 100.0
    );
    assert!(
        g < h,
        "the DRL model ({g:.1}) must beat the handcrafted FSM ({h:.1})"
    );
    assert!(
        f < h,
        "the extracted FSM ({f:.1}) must beat the handcrafted FSM ({h:.1})"
    );
    assert!(
        (f - g) / g < 0.05,
        "the extracted FSM should track its DRL teacher within 5%, got {:.1}%",
        (f - g) / g * 100.0
    );
}
