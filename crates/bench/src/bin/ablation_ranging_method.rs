//! Ablation: FMCW dechirp vs matched-filter (pulse-compression) ranging —
//! same captures, two estimators.

use milback::{Fidelity, Network};
use milback_ap::pulse_compression::PulseCompressionRanger;
use milback_ap::with_workspace;
use milback_bench::{emit, f, Table};
use milback_dsp::stats;
use milback_rf::geometry::{deg_to_rad, Pose};
use rand::{Rng, SeedableRng};

fn main() {
    // Randomness drawn serially, trials run on the parallel batch engine.
    let mut master = rand::rngs::StdRng::seed_from_u64(9107);
    let trials = 10;
    let distances = [2.0, 4.0, 6.0];
    let inputs: Vec<(f64, u64, f64)> = distances
        .iter()
        .flat_map(|&d| {
            (0..trials)
                .map(|_| {
                    let seed: u64 = master.gen();
                    let phi = deg_to_rad(master.gen_range(-10.0..10.0));
                    (d, seed, phi)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let results = milback::batch::par_map(&inputs, |&(d, seed, phi), _| {
        let pose = Pose::facing_ap(d, phi, 0.0);
        let mut net = Network::new(pose, Fidelity::Fast, seed);
        let (tx, captures) = net.field2_captures();
        // Dechirp pipeline.
        let loc = net.localizer();
        let de = with_workspace(|ws| loc.process_with(ws, &tx, &captures))
            .map(|fix| (fix.range - d).abs() * 100.0);
        // Matched filter on antenna 0.
        let ant0: Vec<_> = captures.iter().map(|p| p[0].clone()).collect();
        let ranger = PulseCompressionRanger::new(tx);
        let mf = ranger.process(&ant0).map(|r| (r - d).abs() * 100.0);
        (de, mf)
    });
    let mut table = Table::new(&["distance_m", "dechirp_mean_cm", "matched_mean_cm"]);
    for (chunk, &d) in results.chunks(trials).zip(&distances) {
        let errs_de: Vec<f64> = chunk.iter().filter_map(|(de, _)| *de).collect();
        let errs_mf: Vec<f64> = chunk.iter().filter_map(|(_, mf)| *mf).collect();
        table.row(&[
            f(d, 0),
            f(stats::mean(&errs_de), 2),
            f(stats::mean(&errs_mf), 2),
        ]);
    }
    emit("Ablation: dechirp vs matched-filter ranging", &table);
    println!("Both reach the same c/2B-limited accuracy; FMCW dechirp wins in");
    println!("hardware because the beat signal needs only a MHz-class ADC.");
}
