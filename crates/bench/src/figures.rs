//! The generators behind the `figures` binary: one `(name, generator)`
//! entry per figure, table, ablation and survey capture in `results/`.
//! Each generator runs its `milback` experiment with fixed seeds and
//! trial counts, checks the paper's bands on the typed rows (DESIGN.md
//! §4), and renders its text report, and its CSV where it has one, into
//! memory. [`write()`] stores the files; [`check`] compares them with a
//! directory byte for byte.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use milback::{ablations::*, experiments::*};
use milback::{survey::coverage_map, ApParams, Fidelity, Network};
use milback_dsp::stats::{mean, median};
use milback_dsp::{chirp::ChirpConfig, num::Cpx, stft};
use milback_node::node::BackscatterNode;
use milback_rf::geometry::{deg_to_rad, rad_to_deg, Pose, SPEED_OF_LIGHT};
use milback_rf::{channel::Scene, fsa::Port};

use crate::{ber, f, line_chart, Series, Table};

/// A generated file: `(name, contents)`.
pub type File = (String, String);

/// What the generators produced.
#[derive(Debug, Default)]
pub struct Figures {
    /// Every file, in generation order.
    pub files: Vec<File>,
    /// One line per banded figure: the bands it holds and its known gaps.
    pub notes: String,
}

impl Figures {
    /// Adds `<name>.txt`, and `<name>.csv` where the figure has a table.
    fn add(&mut self, name: &str, txt: String, csv: Option<&Table>) {
        self.files.push((format!("{name}.txt"), txt));
        if let Some(table) = csv {
            self.files.push((format!("{name}.csv"), table.to_csv()));
        }
    }
}

/// Adds one entry's files; fails on the entry's first band miss.
type Generator = fn(&mut Figures) -> Result<(), String>;

/// Every generator, by name. Fig. 15's one entry writes both panels,
/// since its band compares them.
const GENERATORS: &[(&str, Generator)] = &[
    ("ablation_chirps", ablation_chirps),
    ("ablation_orientation", ablation_orientation),
    ("ablation_rate", ablation_rate),
    ("ablation_subtraction", ablation_subtraction),
    ("ablation_window", ablation_windows),
    ("coverage_map", coverage),
    ("fig02_fmcw_concept", fig02),
    ("fig05_node_orientation_traces", fig05),
    ("fig10_fsa_pattern", fig10),
    ("fig11_oaqfm_micro", fig11),
    ("fig12a_ranging", fig12a),
    ("fig12b_angle_cdf", fig12b),
    ("fig13a_orient_node", fig13a),
    ("fig13b_orient_ap", fig13b),
    ("fig14_downlink", fig14),
    ("fig15_uplink", fig15),
    ("paper_fidelity_check", paper_fidelity_check),
    ("table1_features", table1_features),
    ("table_power", table_power),
];

/// Runs every generator; a band miss fails the run and names the figure.
pub fn generate() -> Result<Figures, String> {
    let mut out = Figures::default();
    for (name, generator) in GENERATORS {
        generator(&mut out).map_err(|miss| format!("{name}: {miss}"))?;
    }
    Ok(out)
}

/// Writes every file into `dir`, creating it if needed.
pub fn write(dir: &Path, files: &[File]) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, contents) in files {
        let path = dir.join(name);
        fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Reads every file in `dir` and compares it with `files`: see `compare`.
pub fn check(dir: &Path, files: &[File]) -> Result<(), String> {
    let io = |path: &Path, e| format!("{}: {e}", path.display());
    let mut on_disk = BTreeMap::new();
    for entry in fs::read_dir(dir).map_err(|e| io(dir, e))? {
        let path = entry.map_err(|e| io(dir, e))?.path();
        let bytes = fs::read(&path).map_err(|e| io(&path, e))?;
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        on_disk.insert(name.into_owned(), bytes);
    }
    compare(&on_disk, files).map_err(|e| format!("{}{e}", dir.join("").display()))
}

/// Fails at the first file whose bytes differ from `on_disk`, naming the
/// file and its first differing line (`""` past the end); on a file
/// `on_disk` lacks; and on a file in `on_disk` that no generator writes.
fn compare(on_disk: &BTreeMap<String, Vec<u8>>, files: &[File]) -> Result<(), String> {
    for (name, want) in files {
        let Some(got) = on_disk.get(name) else {
            return Err(format!("{name}: missing"));
        };
        if got != want.as_bytes() {
            let got = String::from_utf8_lossy(got);
            let (w, g) = (want.split_inclusive('\n'), got.split_inclusive('\n'));
            let at = w.zip(g).take_while(|(w, g)| w == g).count();
            let (gen, disk, n) = (line(want, at), line(&got, at), at + 1);
            return Err(format!("{name}:{n}: generated {gen:?}, found {disk:?}"));
        }
    }
    match on_disk.keys().find(|k| !files.iter().any(|f| f.0 == **k)) {
        Some(extra) => Err(format!("{extra}: no generator writes this file")),
        None => Ok(()),
    }
}

/// Line `at` (from 0) of `s` with its newline; empty past the end.
fn line(s: &str, at: usize) -> &str {
    s.split_inclusive('\n').nth(at).unwrap_or_default()
}

/// `Ok` when `ok`; otherwise a band miss naming the row, value and band.
fn band(row: &str, value: f64, band: &str, ok: bool) -> Result<(), String> {
    if ok {
        return Ok(());
    }
    Err(format!("{row} reads {value:.2}, outside {band}"))
}

/// Fig. 12a: mean ranging error ≤5 cm at 5 m and ≤12 cm at 8 m.
fn fig12a_bands(rows: &[RangingRow]) -> Result<(), String> {
    for (d, max, range) in [(5.0, 5.0, "≤5 cm"), (8.0, 12.0, "≤12 cm")] {
        let row = rows.iter().find(|r| r.distance_m == d);
        let cm = row.map_or(f64::NAN, |r| r.mean_cm);
        band(&format!("mean error at {d} m"), cm, range, cm <= max)?;
    }
    Ok(())
}

/// Fig. 12b: median angle error ≤1.1°.
fn fig12b_bands(cdf: &AngleCdf) -> Result<(), String> {
    band("median", cdf.median_deg, "≤1.1°", cdf.median_deg <= 1.1)
}

/// Fig. 13a: mean error <3° at every orientation, and a variance of at
/// most 0.5 deg² per orientation: one gross miss (a trial 4° off) among
/// 25 alone reads 0.61 deg².
fn fig13a_bands(rows: &[OrientationRow]) -> Result<(), String> {
    for r in rows {
        let row = format!("mean error at {}°", r.orientation_deg);
        band(&row, r.mean_err_deg, "<3°", r.mean_err_deg < 3.0)?;
        let row = format!("variance at {}°", r.orientation_deg);
        band(&row, r.variance_deg2, "≤0.5 deg²", r.variance_deg2 <= 0.5)?;
    }
    Ok(())
}

/// Fig. 13b: mean error <1.5°, and <3° in the −6°…−2° mirror region.
fn fig13b_bands(rows: &[OrientationRow]) -> Result<(), String> {
    for r in rows {
        let (max, range) = if (-6.0..=-2.0).contains(&r.orientation_deg) {
            (3.0, "<3° inside −6°…−2°")
        } else {
            (1.5, "<1.5° outside −6°…−2°")
        };
        let row = format!("mean error at {}°", r.orientation_deg);
        band(&row, r.mean_err_deg, range, r.mean_err_deg < max)?;
    }
    Ok(())
}

/// Fig. 14: SINR ≥12 dB at 10 m, with no bit error out to 10 m.
fn fig14_bands(rows: &[LinkRow]) -> Result<(), String> {
    for r in rows.iter().filter(|r| r.distance_m <= 10.0) {
        let errors = r.measured_bit_errors;
        let row = format!("bit errors at {} m", r.distance_m);
        band(&row, errors as f64, "0", errors == 0)?;
    }
    let sinr = rows.iter().find(|r| r.distance_m == 10.0);
    let sinr = sinr.map_or(f64::NAN, |r| r.snr_db);
    band("SINR at 10 m", sinr, "≥12 dB", sinr >= 12.0)
}

/// The 10 Mbps minus the 40 Mbps uplink SNR at every distance both reach.
fn fig15_gaps(r10: &[LinkRow], r40: &[LinkRow]) -> Vec<f64> {
    let at = |b: &LinkRow| r10.iter().find(|a| a.distance_m == b.distance_m);
    let gap = |b: &LinkRow| Some(at(b)?.snr_db - b.snr_db);
    r40.iter().filter_map(gap).collect()
}

/// Fig. 15: the median over distances of the 10 Mbps SNR minus the
/// 40 Mbps SNR is 6 ± 1 dB (4× the noise bandwidth).
fn fig15_bands(r10: &[LinkRow], r40: &[LinkRow]) -> Result<(), String> {
    let gap = median(&fig15_gaps(r10, r40));
    let ok = (gap - 6.0).abs() <= 1.0;
    band("median 10 − 40 Mbps SNR gap", gap, "6 ± 1 dB", ok)
}

/// `== title ==`, the aligned table and a blank line.
fn heading(title: &str, table: &Table) -> String {
    format!("== {title} ==\n{}\n", table.render())
}

fn ablation_chirps(out: &mut Figures) -> Result<(), String> {
    let mut t = Table::new(&["n_chirps", "detections", "mean_err_cm"]);
    for r in &ablation_chirp_count(10, 9103) {
        let found = format!("{}/{}", r.detections, r.trials);
        t.row(&[r.n_chirps.to_string(), found, f(r.mean_err_cm, 2)]);
    }
    let txt = heading("Ablation: Field-2 chirp count (node at 5 m)", &t)
        + "Two chirps give a single difference — fragile when the node's\n\
           toggle straddles it; the paper's five chirps give four chances.\n";
    out.add("ablation_chirps", txt, Some(&t));
    Ok(())
}

fn ablation_orientation(out: &mut Figures) -> Result<(), String> {
    let mut t = Table::new(&["orientation_deg", "assisted_sinr_db", "fixed_tone_sinr_db"]);
    for r in &ablation_orientation_assist(9102) {
        let (assisted, fixed) = (f(r.assisted_sinr_db, 2), f(r.fixed_sinr_db, 2));
        t.row(&[f(r.orientation_deg, 0), assisted, fixed]);
    }
    let txt = heading("Ablation: orientation-assisted tone selection", &t)
        + "A blind AP (tones fixed for one orientation) loses the node's\n\
           ~9° beam within a few degrees of rotation; orientation sensing\n\
           keeps the link at full SINR across the FSA's scan range.\n";
    out.add("ablation_orientation", txt, Some(&t));
    Ok(())
}

fn ablation_rate(out: &mut Figures) -> Result<(), String> {
    let mut t = Table::new(&["bit_rate_mbps", "supported", "snr_db", "bit_errors"]);
    for r in &ablation_uplink_rate(3.0, 9105) {
        let (ok, snr) = if r.supported {
            ("yes".into(), f(r.snr_db, 2))
        } else {
            ("NO (switch cap)".into(), "-".into())
        };
        t.row(&[f(r.bit_rate_mbps, 0), ok, snr, r.bit_errors.to_string()]);
    }
    let txt = heading("Ablation: uplink rate sweep at 3 m", &t)
        + "Each rate doubling costs ~3 dB of decision SNR (noise bandwidth);\n\
           the ADRF5020-class switch tops out at 80 Msym/s = 160 Mbps.\n";
    out.add("ablation_rate", txt, Some(&t));
    Ok(())
}

fn ablation_subtraction(out: &mut Figures) -> Result<(), String> {
    let mut t = Table::new(&["distance_m", "with_subtraction", "without_subtraction"]);
    for r in &ablation_background_subtraction(10, 9101) {
        let with = format!("{}/{}", r.with_ok, r.trials);
        let without = format!("{}/{}", r.without_ok, r.trials);
        t.row(&[f(r.distance_m, 0), with, without]);
    }
    let txt = heading("Ablation: background subtraction (correct fixes)", &t)
        + "Without subtraction the raw range profile locks onto walls and\n\
           furniture; with it, the modulated node survives the differencing.\n";
    out.add("ablation_subtraction", txt, Some(&t));
    Ok(())
}

fn ablation_windows(out: &mut Figures) -> Result<(), String> {
    let mut t = Table::new(&["window", "detections", "mean_err_cm"]);
    for r in &ablation_window(10, 9104) {
        let found = format!("{}/{}", r.detections, r.trials);
        t.row(&[format!("{:?}", r.window), found, f(r.mean_err_cm, 2)]);
    }
    let txt = heading("Ablation: range-FFT window (node at 5 m)", &t);
    out.add("ablation_window", txt, Some(&t));
    Ok(())
}

/// Deployment planning: the best uplink rate per grid cell of the default
/// indoor scene, as a table and as a map.
fn coverage(out: &mut Figures) -> Result<(), String> {
    let (scene, ap) = (Scene::milback_indoor(), ApParams::milback());
    let node = BackscatterNode::milback(Pose::facing_ap(2.0, 0.0, 0.0));
    let cells = coverage_map(&scene, &node, &ap, 10.0, 6.0, 1.0);
    let mut t = Table::new(&["x_m", "y_m", "uplink_snr_db_10mbps", "best_rate_mbps"]);
    for c in &cells {
        let (p, rate) = (c.position, c.best_rate.map(|r| f(r / 1e6, 0)));
        let rate = rate.unwrap_or_else(|| "-".into());
        t.row(&[f(p.x, 1), f(p.y, 1), f(c.uplink_snr_db, 1), rate]);
    }
    let mut txt = heading("Coverage map: uplink rate per cell (10 m × 6 m room)", &t);
    txt += "Rate map (4=40M, 2=20M, 1=10M, 5=5M, ·=no link), AP at left center:\n";
    for y in (-3..=3).rev().map(f64::from) {
        txt += "  ";
        for x in (1..=10).map(f64::from) {
            let cell = cells
                .iter()
                .find(|c| (c.position.x - x).abs() < 0.01 && (c.position.y - y).abs() < 0.01);
            txt.push(match cell.and_then(|c| c.best_rate) {
                Some(r) if r >= 40e6 => '4',
                Some(r) if r >= 20e6 => '2',
                Some(r) if r >= 10e6 => '1',
                Some(_) => '5',
                None => '·',
            });
            txt.push(' ');
        }
        txt.push('\n');
    }
    out.add("coverage_map", txt, Some(&t));
    Ok(())
}

/// Figure 2, the FMCW concept, at signal level: the transmitted and
/// received chirp tracks, their constant difference Δf, and the ToF.
fn fig02(out: &mut Figures) -> Result<(), String> {
    let cfg = ChirpConfig {
        f_start: 26.5e9,
        f_stop: 29.5e9,
        duration: 4e-6,
        fs: 3.2e9,
        amplitude: 1.0,
    };
    let d = 6.0; // a reflector 6 m away
    let tau = 2.0 * d / SPEED_OF_LIGHT;
    let tx = cfg.sawtooth();
    let mut rx = tx.delayed(tau);
    rx.rotate(Cpx::cis(-2.0 * std::f64::consts::PI * tx.fc * tau));
    let sg_tx = stft::stft(&tx.samples, tx.fs, stft::StftConfig::new(512));
    let sg_rx = stft::stft(&rx.samples, rx.fs, stft::StftConfig::new(512));
    let track = |sg: &stft::Spectrogram, label| {
        let ghz = |(t, f): (&f64, f64)| (t * 1e6, (f + cfg.center() - 26.5e9) / 1e9 + 26.5);
        let steady = sg.frame_times.iter().zip(sg.peak_track()).skip(2); // past the delay transient
        Series::new(label, steady.map(ghz).collect())
    };
    let tracks = [
        track(&sg_tx, "TX chirp (GHz)"),
        track(&sg_rx, "RX echo (GHz)"),
    ];
    // The frequency difference is constant over the overlap — that is Δf.
    let (f_tx, f_rx) = (sg_tx.peak_track(), sg_rx.peak_track());
    let n = sg_tx.power.len().saturating_sub(6);
    let overlap = f_tx.iter().zip(f_rx).skip(3).take(n);
    let df = mean(&overlap.map(|(t, r)| t - r).collect::<Vec<_>>());
    let tof = df / cfg.slope();
    let txt = format!(
        "Figure 2 concept: transmitted (●) and received (○) chirps\n{}\n\
         measured Δf ≈ {:.2} MHz (constant across the sweep)\n\
         ToF = Δf/slope = {:.2} ns → distance {:.2} m (truth {d} m)\n",
        line_chart(&tracks, 64, 14),
        df / 1e6,
        tof * 1e9,
        tof * SPEED_OF_LIGHT / 2.0
    );
    out.add("fig02_fmcw_concept", txt, None);
    Ok(())
}

/// Figure 5, node-side orientation sensing, at signal level: the node's
/// detector output over one triangular chirp at three orientations.
fn fig05(out: &mut Figures) -> Result<(), String> {
    let mut txt =
        String::from("Figure 5 concept: detector output vs time, one chart per orientation\n");
    for (label, odeg) in [("−20°", -20.0), ("0°", 0.0), ("+14°", 14.0)] {
        let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(-odeg));
        let mut net = Network::new(pose, Fidelity::Fast, 501);
        // Average 8 chirps for a clean display trace (detector noise is
        // σ ≈ 2.4 mV per sample; the estimator works from single chirps).
        let (mut cap_a, mut cap_b) = (vec![], vec![]);
        for _ in 0..8 {
            let (a, b) = net.field1_node_captures().ok_or("no Field-1 capture")?;
            for (acc, cap) in [(&mut cap_a, a), (&mut cap_b, b)] {
                acc.resize(cap.len(), 0.0);
                acc.iter_mut().zip(cap).for_each(|(acc, v)| *acc += v);
            }
        }
        let mv = |cap: &[f64], name| {
            let mean_mv = cap.iter().map(|v| v / 8.0 * 1e3);
            let points = mean_mv.enumerate().map(|(i, v)| (i as f64, v));
            Series::new(name, points.collect())
        };
        let ports = [mv(&cap_a, "port A (mV)"), mv(&cap_b, "port B (mV)")];
        let chart = line_chart(&ports, 72, 10);
        txt += &format!("-- orientation {label} --\n{chart}\n");
    }
    txt += "x axis: MCU ADC sample (1 MHz) over the 45 µs triangular chirp.\n\
            Each port shows two power peaks, mirrored around the sweep apex\n\
            (sample ~22); their separation encodes the beam-alignment\n\
            frequency — what §5.2(b) measures. At 0° both ports align at\n\
            the same frequency, so the peak pairs coincide (OOK fallback).\n";
    out.add("fig05_node_orientation_traces", txt, None);
    Ok(())
}

/// Figure 10: the dual-port FSA beam pattern at seven sample
/// frequencies, plus the §9.1 gain and coverage claims.
fn fig10(out: &mut Figures) -> Result<(), String> {
    let rows = fig10_fsa_pattern();
    let mut t = Table::new(&["port", "freq_ghz", "theta_deg", "gain_dbi"]);
    for r in &rows {
        let (freq, theta) = (f(r.freq_ghz, 1), f(r.theta_deg, 1));
        t.row(&[format!("{:?}", r.port), freq, theta, f(r.gain_dbi, 2)]);
    }
    let beam = |ghz| {
        let a = rows
            .iter()
            .filter(|r| r.port == Port::A && r.freq_ghz == ghz);
        let gain = a.map(|r| (r.theta_deg, r.gain_dbi.max(-10.0)));
        Series::new(&format!("port A @ {ghz} GHz"), gain.collect())
    };
    let s = fsa_summary();
    let txt = heading("Figure 10: Dual-port FSA beam pattern", &t)
        + &line_chart(&[beam(26.5), beam(28.0), beam(29.5)], 70, 14)
        + &format!(
            "\nSection 9.1 claims:\n  min peak gain over band : {:.2} dBi (paper: > 10 dB)\n  \
             scan coverage (3 GHz BW): {:.1}°   (paper: > 60°)\n",
            s.min_peak_gain_dbi, s.coverage_deg
        );
    out.add("fig10_fsa_pattern", txt, Some(&t));
    Ok(())
}

/// Figure 11: the node's two detector outputs while the AP sends the
/// OAQFM symbols 00, 01, 10, 11.
fn fig11(out: &mut Figures) -> Result<(), String> {
    let tr = fig11_oaqfm_micro(42);
    let mut t = Table::new(&["time_us", "port_a_mv", "port_b_mv"]);
    for ((time, a), b) in tr.time_us.iter().zip(&tr.port_a_mv).zip(&tr.port_b_mv) {
        t.row(&[f(*time, 3), f(*a, 3), f(*b, 3)]);
    }
    // Per-symbol steady-state levels — what the plot shows at a glance.
    let mut levels = Table::new(&["symbol", "port_a_mv", "port_b_mv"]);
    for (start, label) in &tr.symbols {
        let steady = |mv: &[f64]| {
            let at = tr.time_us.iter().zip(mv);
            let sel = at.filter(|(t, _)| (start + 0.3..=start + 0.95).contains(*t));
            f(mean(&sel.map(|(_, v)| *v).collect::<Vec<_>>()), 2)
        };
        let (a, b) = (steady(&tr.port_a_mv), steady(&tr.port_b_mv));
        levels.row(&[label.to_string(), a, b]);
    }
    let (f_a, f_b) = tr.tones_ghz;
    let txt = format!(
        "Tones selected from orientation: f_A = {f_a:.3} GHz, f_B = {f_b:.3} GHz\n\
         Symbols: {:?}\n{}Per-symbol steady-state levels:\n{}\n",
        tr.symbols,
        heading("Figure 11: OAQFM microbenchmark traces", &t),
        levels.render()
    );
    out.add("fig11_oaqfm_micro", txt, Some(&t));
    Ok(())
}

/// Trials per distance of Fig. 12a.
const FIG12A_TRIALS: usize = 20;

/// Figure 12a: mean and p90 ranging error versus distance, 20 trials each.
fn fig12a(out: &mut Figures) -> Result<(), String> {
    let rows = fig12a_ranging(FIG12A_TRIALS, 1201);
    fig12a_bands(&rows)?;
    let mut t = Table::new(&["distance_m", "mean_err_cm", "p90_err_cm", "fixes"]);
    for r in &rows {
        let (mean, p90) = (f(r.mean_cm, 2), f(r.p90_cm, 2));
        let fixes = format!("{}/{FIG12A_TRIALS}", r.n);
        t.row(&[f(r.distance_m, 0), mean, p90, fixes]);
    }
    let curve = |label, err: fn(&RangingRow) -> f64| {
        Series::new(label, rows.iter().map(|r| (r.distance_m, err(r))).collect())
    };
    let mean = curve("mean error (cm)", |r| r.mean_cm);
    let p90 = curve("p90 error (cm)", |r| r.p90_cm);
    let txt = heading("Figure 12a: Ranging accuracy vs distance", &t)
        + &line_chart(&[mean, p90], 60, 12)
        + "\nPaper reference: mean < 5 cm at 5 m, < 12 cm at 8 m.\n";
    out.add("fig12a_ranging", txt, Some(&t));
    out.notes += "fig12a_ranging: paper bands hold\n";
    Ok(())
}

/// Figure 12b: CDF of the angle estimation error.
fn fig12b(out: &mut Figures) -> Result<(), String> {
    let cdf = fig12b_angle_cdf(8, 1202);
    fig12b_bands(&cdf)?;
    let mut t = Table::new(&["error_deg", "cdf"]);
    for (e, p) in &cdf.cdf {
        t.row(&[f(*e, 3), f(*p, 4)]);
    }
    let (median, p90) = (cdf.median_deg, cdf.p90_deg);
    let txt = heading("Figure 12b: Angle error CDF", &t)
        + &format!("median = {median:.2}°  (paper: 1.1°)\np90    = {p90:.2}°  (paper: 2.5°)\n");
    out.add("fig12b_angle_cdf", txt, Some(&t));
    out.notes +=
        &format!("fig12b_angle_cdf: paper bands hold; known gap: p90 {p90:.2}° (paper 2.5°)\n");
    Ok(())
}

/// Trials per orientation of Figs. 13a and 13b.
const FIG13_TRIALS: usize = 25;

/// The Figs. 13a/13b table: mean error and variance per orientation.
fn orientation_table(rows: &[OrientationRow]) -> Table {
    let mut t = Table::new(&["orientation_deg", "mean_err_deg", "variance_deg2", "n"]);
    for r in rows {
        let (err, var) = (f(r.mean_err_deg, 2), f(r.variance_deg2, 3));
        let n = format!("{}/{FIG13_TRIALS}", r.n);
        t.row(&[f(r.orientation_deg, 0), err, var, n]);
    }
    t
}

/// Figure 13a: orientation estimation at the node (triangular-chirp
/// peak separation), 25 trials per orientation at 2 m.
fn fig13a(out: &mut Figures) -> Result<(), String> {
    let rows = fig13a_node_orientation(FIG13_TRIALS, 1301);
    fig13a_bands(&rows)?;
    let t = orientation_table(&rows);
    let txt = heading("Figure 13a: Orientation estimation at the node", &t)
        + "Paper reference: mean error < 3° at every orientation.\n";
    out.add("fig13a_orient_node", txt, Some(&t));
    let worst = rows
        .iter()
        .max_by(|a, b| a.mean_err_deg.total_cmp(&b.mean_err_deg));
    let worst = worst.map_or(f64::NAN, |r| r.mean_err_deg);
    out.notes += &format!("fig13a_orient_node: paper bands hold; worst mean error {worst:.2}°\n");
    Ok(())
}

/// Figure 13b: orientation estimation at the AP, including the
/// mirror-reflection error bump between −6° and −2°.
fn fig13b(out: &mut Figures) -> Result<(), String> {
    let rows = fig13b_ap_orientation(FIG13_TRIALS, 1302);
    fig13b_bands(&rows)?;
    let t = orientation_table(&rows);
    let txt = heading("Figure 13b: Orientation estimation at the AP", &t)
        + "Paper reference: mean < 1.5° generally, < 3° in the −6°…−2°\n\
           mirror-collision region.\n";
    out.add("fig13b_orient_ap", txt, Some(&t));
    out.notes += "fig13b_orient_ap: paper bands hold\n";
    Ok(())
}

/// The Figs. 14/15 report: SNR (SINR for the downlink) and BER per
/// distance, then the curve.
fn link_report(rows: &[LinkRow], title: &str, snr: &str, label: &str) -> (String, Table) {
    let mut t = Table::new(&["distance_m", snr, "ber", "frame_errors"]);
    for r in rows {
        let errors = format!("{}/{}", r.measured_bit_errors, r.total_bits);
        t.row(&[f(r.distance_m, 0), f(r.snr_db, 2), ber(r.ber), errors]);
    }
    let snr = rows.iter().map(|r| (r.distance_m, r.snr_db));
    let curve = Series::new(label, snr.collect());
    (heading(title, &t) + &line_chart(&[curve], 60, 12) + "\n", t)
}

/// Figure 14: downlink SINR versus distance.
fn fig14(out: &mut Figures) -> Result<(), String> {
    let rows = fig14_downlink(1401);
    fig14_bands(&rows)?;
    let title = "Figure 14: Downlink SINR vs distance";
    let (txt, t) = link_report(&rows, title, "sinr_db", "SINR (dB)");
    let txt = txt + "Paper reference: SINR > 12 dB at 10 m; BER < 1e-8 throughout.\n";
    out.add("fig14_downlink", txt, Some(&t));
    out.notes += "fig14_downlink: paper bands hold\n";
    Ok(())
}

/// Figures 15a and 15b: uplink SNR versus distance at 10 and 40 Mbps.
fn fig15(out: &mut Figures) -> Result<(), String> {
    let (r10, r40) = (fig15_uplink(10e6, 10, 1501), fig15_uplink(40e6, 8, 1502));
    fig15_bands(&r10, &r40)?;
    let title = "Figure 15a: Uplink SNR vs distance, 10 Mbps";
    let (txt, t) = link_report(&r10, title, "snr_db", "SNR (dB) @10 Mbps");
    let txt = txt + "Paper reference: very low BER out to 8 m at 10 Mbps.\n";
    out.add("fig15a_uplink_10m", txt, Some(&t));
    let title = "Figure 15b: Uplink SNR vs distance, 40 Mbps";
    let (txt, t) = link_report(&r40, title, "snr_db", "SNR (dB) @40 Mbps");
    let txt = txt
        + "Paper reference: very low BER out to 6 m at 40 Mbps;\n\
           ~1e-3 at 8 m. SNR sits ~6 dB below the 10 Mbps curve.\n";
    out.add("fig15b_uplink_40m", txt, Some(&t));
    let gaps = fig15_gaps(&r10, &r40);
    let (gap, near) = (median(&gaps), gaps.first().copied().unwrap_or(f64::NAN));
    out.notes += &format!(
        "fig15_uplink: paper bands hold (median 10 − 40 Mbps gap {gap:.2} dB); \
         known gap: {near:.2} dB at 1 m\n"
    );
    Ok(())
}

/// The headline experiments at Paper fidelity — the paper's exact
/// 18 µs / 45 µs chirps at 4 GS/s — as a cross-check that the Fast
/// preset used everywhere else changes no conclusion (~0.3 s on 2 vCPUs).
fn paper_fidelity_check(out: &mut Figures) -> Result<(), String> {
    let mut txt = String::from(
        "Paper-fidelity cross-check (18 µs / 45 µs chirps, 4 GS/s)\n\
         =========================================================\n",
    );
    for d in [2.0, 5.0, 8.0] {
        txt += &match Network::new(Pose::facing_ap(d, 0.0, 0.0), Fidelity::Paper, 8001).localize() {
            Some(fix) => {
                let (range, err) = (fix.range, (fix.range - d).abs() * 100.0);
                let angle = fix.angle.map(rad_to_deg);
                format!("localize @{d} m: range {range:.3} m (err {err:.1} cm), angle {angle:?}\n")
            }
            None => format!("localize @{d} m: NOT FOUND\n"),
        };
    }
    let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(-8.0));
    let mut net = Network::new(pose, Fidelity::Paper, 8002);
    let truth = rad_to_deg(net.true_orientation());
    if let Some(est) = net.sense_orientation_at_ap().map(rad_to_deg) {
        txt += &format!("AP orientation: est {est:.2}° (true {truth:.2}°)\n");
    }
    if let Some(est) = net.sense_orientation_at_node().map(rad_to_deg) {
        txt += &format!("node orientation: est {est:.2}° (true {truth:.2}°)\n");
    }
    let pose = Pose::facing_ap(3.0, 0.0, deg_to_rad(12.0));
    if let Some(dl) = Network::new(pose, Fidelity::Paper, 8003).downlink(&[0xAD; 16], 1e6, true) {
        let (sinr, errors) = (10.0 * dl.sinr.log10(), dl.bit_errors);
        txt += &format!("downlink @3 m: SINR {sinr:.1} dB, {errors} bit errors\n");
    }
    if let Some(ul) = Network::new(pose, Fidelity::Paper, 8004).uplink(&[0xDA; 16], 5e6, true) {
        let (snr, errors) = (10.0 * ul.snr.log10(), ul.bit_errors);
        txt += &format!("uplink  @3 m: SNR {snr:.1} dB, {errors} bit errors\n");
    }
    out.add("paper_fidelity_check", txt, None);
    Ok(())
}

/// Table 1: capabilities against the state-of-the-art mmWave backscatter
/// systems, plus the §9.6 energy-efficiency column.
fn table1_features(out: &mut Figures) -> Result<(), String> {
    let yn = |b: bool| if b { "Yes" } else { "No" }.to_string();
    let mut t = Table::new(&[
        "system",
        "uplink",
        "localization",
        "downlink",
        "orientation",
        "uplink_nj_per_bit",
    ]);
    for r in &milback_baseline::table1() {
        let (name, nj) = (r.name.to_string(), r.uplink_nj_per_bit);
        let nj = nj.map_or("-".into(), |v| format!("{v:.1}"));
        let c = r.capabilities;
        let (up, loc, down, orient) = (c.uplink, c.localization, c.downlink, c.orientation);
        t.row(&[name, yn(up), yn(loc), yn(down), yn(orient), nj]);
    }
    let title = "Table 1: Comparison with state-of-the-art mmWave backscatter";
    out.add("table1_features", heading(title, &t), Some(&t));
    Ok(())
}

/// §9.6: 18 mW during localization/downlink, 32 mW during uplink,
/// 0.5 / 0.8 nJ per bit.
fn table_power(out: &mut Figures) -> Result<(), String> {
    let mut t = Table::new(&["mode", "power_mw", "rate_mbps", "nj_per_bit"]);
    for r in &power_table() {
        let rate = r.rate_mbps.map_or("-".into(), |v| f(v, 0));
        let nj = r.nj_per_bit.map_or("-".into(), |v| f(v, 2));
        t.row(&[r.mode.to_string(), f(r.power_mw, 1), rate, nj]);
    }
    let txt = heading("Section 9.6: Node power consumption", &t)
        + "Paper reference: 18 mW localization/downlink, 32 mW uplink,\n\
           0.5 nJ/bit downlink @36 Mbps, 0.8 nJ/bit uplink @40 Mbps\n\
           (vs mmTag's 2.4 nJ/bit, uplink only).\n";
    out.add("table_power", txt, Some(&t));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(entries: &[(&str, &str)]) -> Vec<File> {
        entries
            .iter()
            .map(|(n, c)| (n.to_string(), c.to_string()))
            .collect()
    }

    fn disk(entries: &[(&str, &str)]) -> BTreeMap<String, Vec<u8>> {
        entries
            .iter()
            .map(|(n, c)| (n.to_string(), c.as_bytes().to_vec()))
            .collect()
    }

    const A: (&str, &str) = ("a.txt", "one\ntwo\nthree\n");
    const B: (&str, &str) = ("b.csv", "x,y\n1,2\n");

    #[test]
    fn identical_files_pass() {
        assert_eq!(compare(&disk(&[A, B]), &files(&[A, B])), Ok(()));
    }

    #[test]
    fn a_one_byte_change_names_the_file_and_the_line() {
        let err = compare(&disk(&[A, ("b.csv", "x,y\n1,3\n")]), &files(&[A, B])).unwrap_err();
        assert_eq!(err, r#"b.csv:2: generated "1,2\n", found "1,3\n""#);
        let err = compare(&disk(&[("a.txt", "one\ntwo\nthree"), B]), &files(&[A, B])).unwrap_err();
        assert_eq!(err, r#"a.txt:3: generated "three\n", found "three""#);
        let err = compare(&disk(&[("a.txt", "one\ntwo\n"), B]), &files(&[A, B])).unwrap_err();
        assert_eq!(err, r#"a.txt:3: generated "three\n", found """#);
        let err = compare(
            &disk(&[("a.txt", "one\ntwo\nthree\nfour\n"), B]),
            &files(&[A, B]),
        );
        assert_eq!(err.unwrap_err(), r#"a.txt:4: generated "", found "four\n""#);
    }

    #[test]
    fn a_missing_and_an_extra_file_each_fail() {
        let err = compare(&disk(&[A]), &files(&[A, B])).unwrap_err();
        assert_eq!(err, "b.csv: missing");
        let err = compare(&disk(&[A, B, ("stray.csv", "")]), &files(&[A, B])).unwrap_err();
        assert_eq!(err, "stray.csv: no generator writes this file");
    }

    #[test]
    fn check_reads_the_directory_and_names_its_files() {
        let dir = std::env::temp_dir().join(format!("milback-figures-{}", std::process::id()));
        write(&dir, &files(&[A, B])).unwrap();
        assert_eq!(check(&dir, &files(&[A, B])), Ok(()));
        fs::write(dir.join("a.txt"), "one\ntwo\nthree!\n").unwrap();
        let err = check(&dir, &files(&[A, B])).unwrap_err();
        assert!(
            err.ends_with(r#"a.txt:3: generated "three\n", found "three!\n""#),
            "{err}"
        );
        assert!(err.starts_with(&dir.display().to_string()), "{err}");
        fs::remove_dir_all(&dir).unwrap();
        assert!(
            check(&dir, &files(&[A])).is_err(),
            "a missing directory fails"
        );
    }

    fn ranging(distance_m: f64, mean_cm: f64) -> RangingRow {
        RangingRow {
            distance_m,
            mean_cm,
            p90_cm: 2.0 * mean_cm,
            n: 20,
        }
    }

    fn orientation(rows: &[(f64, f64)]) -> Vec<OrientationRow> {
        let row = |&(orientation_deg, mean_err_deg)| OrientationRow {
            orientation_deg,
            mean_err_deg,
            variance_deg2: 1.0,
            n: 25,
        };
        rows.iter().map(row).collect()
    }

    fn link(snr_db: &[f64]) -> Vec<LinkRow> {
        let row = |(i, &snr_db)| LinkRow {
            distance_m: (i + 1) as f64,
            snr_db,
            ber: 0.0,
            measured_bit_errors: 0,
            total_bits: 144,
        };
        snr_db.iter().enumerate().map(row).collect()
    }

    #[test]
    fn fig12a_band_holds_the_captured_rows_and_rejects_a_miss() {
        assert_eq!(
            fig12a_bands(&[ranging(5.0, 2.36), ranging(8.0, 4.89)]),
            Ok(())
        );
        let err = fig12a_bands(&[ranging(5.0, 5.1), ranging(8.0, 4.89)]).unwrap_err();
        assert_eq!(err, "mean error at 5 m reads 5.10, outside ≤5 cm");
        assert!(fig12a_bands(&[ranging(5.0, 2.36), ranging(8.0, 12.5)]).is_err());
        assert!(
            fig12a_bands(&[ranging(5.0, 2.36)]).is_err(),
            "a missing row fails"
        );
    }

    #[test]
    fn fig12b_band_holds_the_captured_median_and_rejects_a_miss() {
        let cdf = |median_deg| AngleCdf {
            cdf: vec![],
            median_deg,
            p90_deg: 3.13,
        };
        assert_eq!(fig12b_bands(&cdf(0.49)), Ok(()));
        assert_eq!(
            fig12b_bands(&cdf(1.2)).unwrap_err(),
            "median reads 1.20, outside ≤1.1°"
        );
    }

    /// `results/fig13a_orient_node.csv`: orientation, mean error,
    /// variance.
    const FIG13A: [(f64, f64, f64); 11] = [
        (-20.0, 0.05, 0.004),
        (-16.0, 0.07, 0.005),
        (-12.0, 0.07, 0.007),
        (-8.0, 0.06, 0.006),
        (-4.0, 0.06, 0.006),
        (0.0, 0.06, 0.005),
        (4.0, 0.05, 0.003),
        (8.0, 0.08, 0.010),
        (12.0, 0.04, 0.003),
        (16.0, 0.07, 0.006),
        (20.0, 0.07, 0.008),
    ];

    fn fig13a_rows(rows: &[(f64, f64, f64)]) -> Vec<OrientationRow> {
        let row = |&(orientation_deg, mean_err_deg, variance_deg2)| OrientationRow {
            orientation_deg,
            mean_err_deg,
            variance_deg2,
            n: 25,
        };
        rows.iter().map(row).collect()
    }

    #[test]
    fn fig13a_band_holds_the_captured_rows_and_rejects_a_miss() {
        assert_eq!(fig13a_bands(&fig13a_rows(&FIG13A)), Ok(()));
        let mut rows = FIG13A;
        rows[9].1 = 3.0;
        let err = fig13a_bands(&fig13a_rows(&rows)).unwrap_err();
        assert_eq!(err, "mean error at 16° reads 3.00, outside <3°");
        // The pre-fix capture at 0°: 1.55° mean error from gross misses.
        let mut rows = FIG13A;
        rows[5] = (0.0, 1.55, 15.011);
        let err = fig13a_bands(&fig13a_rows(&rows)).unwrap_err();
        assert_eq!(err, "variance at 0° reads 15.01, outside ≤0.5 deg²");
        rows[5].2 = 0.51;
        assert!(fig13a_bands(&fig13a_rows(&rows)).is_err());
    }

    /// `results/fig13b_orient_ap.csv`, −12° … 12° in 2° steps.
    const FIG13B: [f64; 13] = [
        0.84, 0.61, 0.65, 0.74, 1.88, 0.63, 0.35, 0.41, 0.48, 0.48, 0.40, 0.47, 0.39,
    ];

    fn fig13b_rows(errs: [f64; 13]) -> Vec<OrientationRow> {
        let rows: Vec<_> = (-6..=6).map(|i| f64::from(2 * i)).zip(errs).collect();
        orientation(&rows)
    }

    #[test]
    fn fig13b_band_holds_the_captured_rows_and_rejects_a_miss() {
        assert_eq!(fig13b_bands(&fig13b_rows(FIG13B)), Ok(()));
        let mut errs = FIG13B;
        errs[4] = 3.1; // −4°, inside the mirror region
        let err = fig13b_bands(&fig13b_rows(errs)).unwrap_err();
        assert_eq!(
            err,
            "mean error at -4° reads 3.10, outside <3° inside −6°…−2°"
        );
        let mut errs = FIG13B;
        errs[6] = 1.6; // 0°, outside it
        assert!(fig13b_bands(&fig13b_rows(errs)).is_err());
    }

    /// `results/fig14_downlink.csv`, 1 … 12 m.
    const FIG14: [f64; 12] = [
        19.00, 18.58, 17.95, 17.21, 16.41, 15.55, 14.68, 13.84, 13.06, 12.33, 11.64, 10.99,
    ];

    #[test]
    fn fig14_band_holds_the_captured_rows_and_rejects_a_miss() {
        assert_eq!(fig14_bands(&link(&FIG14)), Ok(()));
        let mut sinr = FIG14;
        sinr[9] = 11.9;
        assert_eq!(
            fig14_bands(&link(&sinr)).unwrap_err(),
            "SINR at 10 m reads 11.90, outside ≥12 dB"
        );
        let mut rows = link(&FIG14);
        rows[4].measured_bit_errors = 1;
        assert_eq!(
            fig14_bands(&rows).unwrap_err(),
            "bit errors at 5 m reads 1.00, outside 0"
        );
        rows[4].measured_bit_errors = 0;
        rows[11].measured_bit_errors = 3; // 12 m lies beyond the band
        assert_eq!(fig14_bands(&rows), Ok(()));
    }

    /// `results/fig15{a,b}_*.csv`: 10 Mbps to 10 m, 40 Mbps to 8 m.
    const FIG15A: [f64; 10] = [
        40.12, 39.14, 34.07, 29.50, 25.29, 23.42, 19.10, 17.40, 14.50, 13.93,
    ];
    const FIG15B: [f64; 8] = [39.81, 34.97, 27.76, 23.55, 19.69, 16.30, 13.41, 10.20];

    #[test]
    fn fig15_band_holds_the_captured_rows_and_rejects_a_miss() {
        let (r10, r40) = (link(&FIG15A), link(&FIG15B));
        assert_eq!(fig15_bands(&r10, &r40), Ok(()));
        let gaps = fig15_gaps(&r10, &r40);
        assert_eq!(gaps.len(), 8, "only the distances both rates reach");
        assert!((median(&gaps) - 5.82).abs() < 1e-9);
        let narrow: Vec<f64> = FIG15A[..8].iter().map(|snr| snr - 4.0).collect();
        let err = fig15_bands(&r10, &link(&narrow)).unwrap_err();
        assert_eq!(
            err,
            "median 10 − 40 Mbps SNR gap reads 4.00, outside 6 ± 1 dB"
        );
        assert!(fig15_bands(&r10, &[]).is_err(), "no common distance fails");
    }
}
