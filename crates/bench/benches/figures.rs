//! Criterion benchmarks: one group per paper figure/table, timing the
//! pipeline that regenerates it (with reduced trial counts so a bench
//! iteration stays sub-second), plus micro-benchmarks of the hot DSP
//! kernels underneath them.

use criterion::{criterion_group, criterion_main, Criterion};
use milback::experiments;
use milback::{Fidelity, Network};
use milback_dsp::chirp::ChirpConfig;
use milback_dsp::fft::fft;
use milback_dsp::num::Cpx;
use milback_rf::fsa::{DualPortFsa, Port};
use milback_rf::geometry::{deg_to_rad, Pose};
use std::hint::black_box;

fn bench_fig10(c: &mut Criterion) {
    c.bench_function("fig10_fsa_pattern_sweep", |b| {
        b.iter(|| black_box(experiments::fig10_fsa_pattern()))
    });
}

fn bench_fig11(c: &mut Criterion) {
    c.bench_function("fig11_oaqfm_micro", |b| {
        b.iter(|| black_box(experiments::fig11_oaqfm_micro(7)))
    });
}

fn bench_fig12(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_localization");
    g.sample_size(10);
    g.bench_function("one_localization_trial", |b| {
        let pose = Pose::facing_ap(3.0, 0.0, 0.0);
        b.iter(|| {
            let mut net = Network::new(pose, Fidelity::Fast, 5);
            black_box(net.localize())
        })
    });
    g.finish();
}

fn bench_fig13(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13_orientation");
    g.sample_size(10);
    g.bench_function("node_side_estimate", |b| {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(-8.0));
        b.iter(|| {
            let mut net = Network::new(pose, Fidelity::Fast, 6);
            black_box(net.sense_orientation_at_node())
        })
    });
    g.bench_function("ap_side_estimate", |b| {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(-8.0));
        b.iter(|| {
            let mut net = Network::new(pose, Fidelity::Fast, 6);
            black_box(net.sense_orientation_at_ap())
        })
    });
    g.finish();
}

fn bench_fig14(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14_downlink");
    g.sample_size(10);
    g.bench_function("one_downlink_frame", |b| {
        let pose = Pose::facing_ap(4.0, 0.0, deg_to_rad(15.0));
        b.iter(|| {
            let mut net = Network::new(pose, Fidelity::Fast, 8);
            black_box(net.downlink(&[0xA5; 16], 1e6, true))
        })
    });
    g.finish();
}

fn bench_fig15(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig15_uplink");
    g.sample_size(10);
    g.bench_function("one_uplink_frame_10mbps", |b| {
        let pose = Pose::facing_ap(4.0, 0.0, deg_to_rad(15.0));
        b.iter(|| {
            let mut net = Network::new(pose, Fidelity::Fast, 9);
            black_box(net.uplink(&[0x5A; 16], 5e6, true))
        })
    });
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let mut g = c.benchmark_group("extensions");
    g.sample_size(10);
    g.bench_function("velocity_measurement_32_chirps", |b| {
        let pose = Pose::facing_ap(3.0, 0.0, 0.0);
        b.iter(|| {
            let mut net = Network::new(pose, Fidelity::Fast, 12);
            black_box(net.measure_velocity(1.5, 32))
        })
    });
    g.bench_function("dense_downlink_frame", |b| {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(18.0));
        b.iter(|| {
            let mut net = Network::new(pose, Fidelity::Fast, 13);
            black_box(net.downlink_dense(
                &[0xA5; 16],
                1e6,
                milback_proto::dense::DenseConstellation::new(4),
                true,
            ))
        })
    });
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    c.bench_function("table1_features", |b| {
        b.iter(|| black_box(experiments::table1()))
    });
    c.bench_function("table_power", |b| {
        b.iter(|| black_box(experiments::power_table()))
    });
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("dsp_kernels");
    let x: Vec<Cpx> = (0..8192).map(|i| Cpx::cis(i as f64 * 0.37)).collect();
    g.bench_function("fft_8192", |b| b.iter(|| black_box(fft(&x))));

    let fsa = DualPortFsa::milback();
    g.bench_function("fsa_gain_eval", |b| {
        b.iter(|| black_box(fsa.gain(Port::A, 0.2, 28e9)))
    });

    let cfg = ChirpConfig {
        f_start: 26.5e9,
        f_stop: 29.5e9,
        duration: 2e-6,
        fs: 3.2e9,
        amplitude: 1.0,
    };
    g.bench_function("chirp_synthesis_6400", |b| {
        b.iter(|| black_box(cfg.sawtooth()))
    });

    let template: Vec<Cpx> = (0..2048).map(|i| Cpx::cis(i as f64 * 0.21)).collect();
    let rx: Vec<Cpx> = (0..8192).map(|i| Cpx::cis(i as f64 * 0.13)).collect();
    g.bench_function("matched_filter_8192x2048", |b| {
        b.iter(|| black_box(milback_dsp::xcorr::matched_filter(&rx, &template)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig10,
    bench_fig11,
    bench_fig12,
    bench_fig13,
    bench_fig14,
    bench_fig15,
    bench_extensions,
    bench_tables,
    bench_kernels
);
criterion_main!(benches);
