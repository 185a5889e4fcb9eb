//! `paper` — regenerates the paper's evaluation: `results/<id>.txt` for
//! each output id given, every one of [`bench::paper::OUTPUTS`] by
//! default. Each distinct point the outputs read runs once, audited, on
//! one worker per hardware thread. Prints when each output was written,
//! then the runs made and the wall time.
//!
//! A `fast` build compiles lock_stat and DProf out, so it refuses the
//! outputs that read them (`table2`, `table4`, `fig4`) before any run.
//!
//! Usage: `paper [ID]...`

use bench::paper::{self, OUTPUTS};

fn main() {
    let ids = OUTPUTS.map(|(id, _)| id).join(" ");
    let mut args = bench::Args::parse(&format!("paper [ID]..., ID one of: {ids}"));
    let picked = OUTPUTS.iter().filter(|(id, _)| args.flag(id));
    let mut builds: Vec<_> = picked.map(|&(_, build)| build).collect();
    args.done();
    if builds.is_empty() {
        builds = OUTPUTS.map(|(_, build)| build).to_vec();
    }
    let outputs: Vec<_> = builds.iter().map(|build| build()).collect();
    if let Some(refusal) = outputs.iter().find_map(paper::Output::refusal) {
        fail(&refusal);
    }
    std::fs::create_dir_all("results").unwrap_or_else(|e| fail(&format!("results: {e}")));

    let t0 = std::time::Instant::now();
    let [searches, fixed] = paper::run(&outputs, bench::default_workers(), |o, text| {
        let path = format!("results/{}.txt", o.id);
        bench::write_file(path.as_ref(), text).unwrap_or_else(|e| fail(&e));
        let at = t0.elapsed().as_secs_f64();
        println!("{:<12} written at {at:6.1} s", o.id);
    });
    let wall = t0.elapsed().as_secs_f64();
    println!("paper: {searches} saturation searches and {fixed} fixed runs in {wall:.1} s");
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
