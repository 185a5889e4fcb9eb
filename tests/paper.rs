//! The `paper` driver's two outputs that run no simulation, rendered in
//! process: each must equal its committed `results/<id>.txt` byte for
//! byte, so the committed tables say what the code prints.

use bench::paper::OUTPUTS;

#[test]
fn table1_and_table5_match_the_committed_outputs() {
    for id in ["table1", "table5"] {
        let (_, build) = OUTPUTS.into_iter().find(|o| o.0 == id).expect("an output");
        let out = build();
        assert!(out.points.is_empty(), "{id} runs no simulation");
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/{id}.txt"));
        let committed = std::fs::read_to_string(&path).expect("committed output");
        assert_eq!(
            out.text(&[]),
            committed,
            "{id} drifted from {}",
            path.display()
        );
    }
}
