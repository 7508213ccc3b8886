//! Noise generation and thermal-noise arithmetic.
//!
//! Every stochastic experiment in the workspace draws its noise from
//! here, through caller-provided seeded RNGs, so runs are reproducible.
//!
//! Gaussian noise is counter-based. A fill draws exactly one `u64`
//! *stream key* from the caller's `StdRng` ([`fill_key`]), or none when
//! its noise power or σ is at most zero, whatever its length. The
//! standard-normal variate of sample `i`, component `c` (0 = real or
//! in-phase, 1 = quadrature) is then the pure function
//! [`normal`]`(key, i, c)`: a 128-layer ziggurat (Marsaglia & Tsang,
//! 2000) over [`splitmix64`]-finalised words of `(key, i, c, attempt)`.
//! Every rejection draws its next word from that sample's own counter
//! space, so no sample's variate depends on any other sample's.
//!
//! Two things follow (DESIGN.md §17.4). A long fill ([`add_awgn`],
//! [`add_real_noise_keyed`]) splits at any index across two cores when
//! [`par::claim`] finds one idle, with nothing shared but the key: each
//! half computes its own indices, bitwise the serial fill. And a
//! receiver that reads only some samples ([`add_real_noise_at`], the
//! node's ADC) computes the noise of those samples only.
//!
//! Every variate computed is counted in the deterministic
//! `dsp.noise.variates` counter (DESIGN.md §11).

use crate::num::Cpx;
use crate::par;
use crate::signal::Signal;
use milback_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::OnceLock;

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Standard noise reference temperature in kelvin.
pub const T0_KELVIN: f64 = 290.0;

/// 2⁶⁴/φ (φ the golden ratio), odd: the SplitMix64 Weyl increment.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finaliser (Steele, Lea & Flood, 2014): a bijection on
/// `u64` whose output bits each depend on every input bit. SplitMix64's
/// `n`-th output is `splitmix64(seed + n·GOLDEN_GAMMA)`. The one copy in
/// the workspace: the batch engine's seed derivation, the fault and
/// workload streams and the noise words all call it.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream for synthetic inputs and fault draws (traffic
/// schedules, rosters, fault plans). Never channel noise: networks draw
/// from their seeded `StdRng`, and noise from [`normal`].
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// The stream keyed by `seed` and a stable site tag (trial index,
    /// event index, …); its first word is the batch engine's
    /// `derive_seed(seed, tag)`.
    pub fn at(seed: u64, tag: u64) -> Self {
        Mix(seed ^ tag.wrapping_mul(GOLDEN_GAMMA))
    }

    /// The next word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        splitmix64(self.0)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ziggurat layers. A power of two: the layer index is the low 7 bits
/// of a word.
const LAYERS: usize = 128;

/// Right edge `r` of the base layer of Marsaglia & Tsang's 128-layer
/// normal ziggurat.
const ZIG_R: f64 = 3.442_619_855_899;

/// Area `v` of every layer (the base layer's includes the tail beyond
/// `r`), for the unnormalised density `exp(−x²/2)`.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// Counter slots per (sample, component), as a bit count: its first
/// word and the words its rejections draw. Every rejected round uses at
/// most 3 words and is rejected with probability below 0.1, so needing
/// more than 256 words has probability below 10⁻⁸⁰; past that the
/// counter runs into the next sample's space, which costs independence
/// there but cannot repeat a word.
const ATTEMPT_BITS: u32 = 8;

/// The ziggurat tables: layer `i` is the box of width `x[i]` between
/// heights `f[i]` and `f[i + 1]`, where `f[i] = exp(−x[i]²/2)`. `x[0]`
/// is the base layer's virtual width `v/f(r)`, `x[1] = r`, and
/// `x[128] = 0`.
struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; LAYERS + 1];
        let mut f = [1.0; LAYERS + 1];
        x[0] = ZIG_V / pdf(ZIG_R);
        f[0] = pdf(x[0]);
        x[1] = ZIG_R;
        f[1] = pdf(ZIG_R);
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (ZIG_V / x[i] + f[i]).ln()).sqrt();
            f[i + 1] = pdf(x[i + 1]);
        }
        Ziggurat { x, f }
    })
}

/// Word `ctr` of stream `key`: SplitMix64's output at that position.
#[inline(always)]
fn word(key: u64, ctr: u64) -> u64 {
    splitmix64(key.wrapping_add(ctr.wrapping_mul(GOLDEN_GAMMA)))
}

/// The top 53 bits of `w` as a uniform in `[0, 1)`.
#[inline(always)]
fn unit(w: u64) -> f64 {
    (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The ziggurat step for the word `w`: layer from bits 0–6, sign from
/// bit 7, magnitude from the top 53 bits. Returns the variate when it
/// falls inside its layer's box under the curve (~97.2% of words).
#[inline(always)]
fn fast(z: &Ziggurat, w: u64) -> Option<f64> {
    let layer = (w as usize) & (LAYERS - 1);
    let x = unit(w) * z.x[layer];
    (x < z.x[layer + 1]).then(|| signed(x, w))
}

/// `x` with its sign bit flipped when bit 7 of `w` is set: branch-free,
/// since that bit is a coin toss no predictor can learn.
#[inline(always)]
fn signed(x: f64, w: u64) -> f64 {
    f64::from_bits(x.to_bits() ^ ((w & 0x80) << 56))
}

/// Variate `(i, c)` of stream `key` from the tables `z`.
#[inline(always)]
fn variate(z: &Ziggurat, key: u64, i: usize, c: u64) -> f64 {
    let base = ((i as u64) << 1 | c) << ATTEMPT_BITS;
    let w = word(key, base);
    match fast(z, w) {
        Some(x) => x,
        None => slow(z, key, base, w),
    }
}

/// The ziggurat's rejection loop, from the first word `w` that missed
/// the fast path. Word `a` of the sample is `word(key, base + a)`.
#[cold]
#[inline(never)]
fn slow(z: &Ziggurat, key: u64, base: u64, mut w: u64) -> f64 {
    let mut a = 0;
    let mut next = || {
        a += 1;
        word(key, base.wrapping_add(a))
    };
    loop {
        if let Some(x) = fast(z, w) {
            return x;
        }
        let layer = (w as usize) & (LAYERS - 1);
        if layer == 0 {
            // The tail beyond r (Marsaglia, 1964), from uniforms in (0, 1].
            loop {
                let t = -(1.0 - unit(next())).ln() / ZIG_R;
                let y = -(1.0 - unit(next())).ln();
                if y + y > t * t {
                    return signed(ZIG_R + t, w);
                }
            }
        }
        // The wedge: a uniform height in the layer, under the curve?
        let x = unit(w) * z.x[layer];
        let y = z.f[layer] + unit(next()) * (z.f[layer + 1] - z.f[layer]);
        if y < (-0.5 * x * x).exp() {
            return signed(x, w);
        }
        w = next();
    }
}

/// The standard-normal variate of sample `i`, component `c` (0 or 1) of
/// the noise stream `key`: a pure function of its arguments. A
/// component of 2 or more would alias another sample's stream.
pub fn normal(key: u64, i: usize, c: u64) -> f64 {
    debug_assert!(c < 2, "noise component {c} is neither 0 nor 1");
    variate(ziggurat(), key, i, c)
}

/// One standard-normal draw for a scalar (the AP's trigger jitter):
/// variate 0 of a fresh stream, one word from `rng`.
pub fn draw_normal(rng: &mut StdRng) -> f64 {
    count_variates(1);
    normal(rng.gen(), 0, 0)
}

/// The stream key of one fill at noise level `level` (a power or a σ):
/// one word from `rng`, or `None`, drawing nothing, when the level is
/// at most zero and the fill adds no noise.
pub fn fill_key(rng: &mut StdRng, level: f64) -> Option<u64> {
    (level > 0.0).then(|| rng.gen())
}

/// Counts `n` variates computed in `dsp.noise.variates`. The fills
/// count their own; this is for callers that evaluate [`normal`] at
/// samples of their choosing.
pub fn count_variates(n: usize) {
    telemetry::counter_add("dsp.noise.variates", n as u64);
}

/// Thermal noise power in watts over bandwidth `bw` Hz at temperature `T0`,
/// with receiver noise figure `nf_db`.
///
/// `P = k·T₀·B·F` — the −174 dBm/Hz floor plus `10·log10(B)` plus NF.
pub fn thermal_noise_power(bw: f64, nf_db: f64) -> f64 {
    BOLTZMANN * T0_KELVIN * bw * 10f64.powf(nf_db / 10.0)
}

/// Thermal noise power in dBm over bandwidth `bw` Hz with noise figure
/// `nf_db`.
pub fn thermal_noise_dbm(bw: f64, nf_db: f64) -> f64 {
    watts_to_dbm(thermal_noise_power(bw, nf_db))
}

/// Converts watts to dBm.
pub fn watts_to_dbm(w: f64) -> f64 {
    10.0 * (w * 1e3).log10()
}

/// Converts dBm to watts.
pub fn dbm_to_watts(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0) * 1e-3
}

/// Converts a power ratio to decibels.
pub fn ratio_to_db(r: f64) -> f64 {
    10.0 * r.log10()
}

/// Converts decibels to a power ratio.
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Fills shorter than this (in samples) run serially: below it the
/// two-core handshake costs a large share of what the split saves.
pub const SPLIT_MIN: usize = 2048;

/// Runs `fill(part, first_index)` over `xs`: in one piece, or, when a
/// claim is given, the head on the helper and the tail on the caller.
/// Each half gets its own copy of `fill` (a `Copy` closure over the key
/// and the scale), so neither core reads the other's stack.
fn split_fill<T: Send>(
    claim: Option<par::Claim>,
    xs: &mut [T],
    fill: impl Fn(&mut [T], usize) + Copy + Send,
) {
    let Some(claim) = claim else {
        return fill(xs, 0);
    };
    let mid = xs.len() / 2;
    let (head, tail) = xs.split_at_mut(mid);
    claim.join(move || fill(tail, mid), move || fill(head, 0));
}

/// The helper claim a fill of `n` samples splits with: `None` below
/// [`SPLIT_MIN`] or when [`par::claim`] fails.
fn split_claim(n: usize) -> Option<par::Claim> {
    (n >= SPLIT_MIN).then(par::claim).flatten()
}

/// Adds complex AWGN of total power `noise_power` (watts, i.e. |n|² mean) to
/// every sample of `sig`: one key from `rng`, none at zero power.
pub fn add_awgn(sig: &mut Signal, noise_power: f64, rng: &mut StdRng) {
    if let Some(key) = fill_key(rng, noise_power) {
        add_awgn_keyed(&mut sig.samples, noise_power, key);
    }
}

/// [`add_awgn`] on the stream `key`: sample `i` gets
/// `(normal(key, i, 0), normal(key, i, 1))·√(noise_power/2)`.
pub fn add_awgn_keyed(xs: &mut [Cpx], noise_power: f64, key: u64) {
    awgn_fill(split_claim(xs.len()), xs, noise_power, key);
}

fn awgn_fill(claim: Option<par::Claim>, xs: &mut [Cpx], noise_power: f64, key: u64) {
    count_variates(2 * xs.len());
    let s = (noise_power / 2.0).sqrt();
    split_fill(claim, xs, move |part: &mut [Cpx], first| {
        let z = ziggurat();
        for (i, c) in (first..).zip(part) {
            *c += Cpx::new(variate(z, key, i, 0) * s, variate(z, key, i, 1) * s);
        }
    });
}

/// Adds real-valued Gaussian noise with standard deviation `sigma` to a
/// real sample vector (e.g. an envelope-detector output) on the stream
/// `key` (from [`fill_key`]): sample `i` gets `normal(key, i, 0)·sigma`.
pub fn add_real_noise_keyed(samples: &mut [f64], sigma: f64, key: u64) {
    real_noise_fill(split_claim(samples.len()), samples, sigma, key);
}

fn real_noise_fill(claim: Option<par::Claim>, xs: &mut [f64], sigma: f64, key: u64) {
    count_variates(xs.len());
    split_fill(claim, xs, move |part: &mut [f64], first| {
        let z = ziggurat();
        for (i, v) in (first..).zip(part) {
            *v += variate(z, key, i, 0) * sigma;
        }
    });
}

/// [`add_real_noise_keyed`] at the indices `reads` only: each read
/// sample gets exactly what the full fill would give it, and no other
/// sample is touched or computed. `reads` must ascend without repeats
/// (as `Adc::read_indices` does): a repeated index would get its noise
/// twice.
pub fn add_real_noise_at(
    samples: &mut [f64],
    reads: impl IntoIterator<Item = usize>,
    sigma: f64,
    key: u64,
) {
    let z = ziggurat();
    let (mut n, mut next) = (0, 0);
    for i in reads {
        debug_assert!(i >= next, "read index {i} repeats or descends");
        next = i + 1;
        samples[i] += variate(z, key, i, 0) * sigma;
        n += 1;
    }
    count_variates(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // SplitMix64 seeded with 0: its first three outputs.
        let out: Vec<u64> = (1..=3u64)
            .map(|n| splitmix64(n.wrapping_mul(GOLDEN_GAMMA)))
            .collect();
        assert_eq!(
            out,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    #[test]
    fn ziggurat_layers_tile_the_density() {
        // Every layer has area v, and the top layer closes at the mode:
        // f[127] + v/x[127] = f(0) = 1.
        let z = ziggurat();
        let top = z.f[LAYERS - 1] + ZIG_V / z.x[LAYERS - 1];
        assert!((top - 1.0).abs() < 1e-9, "top layer closes at {top}");
        for i in 1..LAYERS - 1 {
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!((area / ZIG_V - 1.0).abs() < 1e-9, "layer {i} area {area}");
            assert!(z.x[i + 1] < z.x[i]);
        }
        assert_eq!((z.x[LAYERS], z.f[LAYERS]), (0.0, 1.0));
    }

    #[test]
    fn tail_and_wedges_have_normal_mass() {
        // Mass beyond r comes only from the tail loop, and mass just
        // inside a layer edge only from the wedges: both at the normal
        // rate within 5 binomial standard errors over 2²¹ variates.
        let n = 1 << 21;
        let key = 0x7A11;
        let count = |lo: f64, hi: f64| {
            (0..n)
                .filter(|&i| (lo..hi).contains(&normal(key, i, 0).abs()))
                .count() as f64
        };
        let check = |lo: f64, hi: f64, p: f64| {
            let k = count(lo, hi);
            let (mean, se) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
            assert!(
                (k - mean).abs() < 5.0 * se,
                "|x| in [{lo}, {hi}): {k} vs {mean}"
            );
        };
        // 2(1 − Φ(r)) and 2(Φ(1.0) − Φ(0.9)).
        check(ZIG_R, f64::INFINITY, 5.761_085e-4);
        check(0.9, 1.0, 0.050_809_74);
    }

    #[test]
    fn thermal_floor_matches_minus_174() {
        // kT0 at 1 Hz ≈ −173.98 dBm/Hz.
        let dbm = thermal_noise_dbm(1.0, 0.0);
        assert!((dbm + 174.0).abs() < 0.1, "{dbm}");
        // 1 GHz bandwidth → −84 dBm.
        let dbm = thermal_noise_dbm(1e9, 0.0);
        assert!((dbm + 84.0).abs() < 0.1, "{dbm}");
        // Noise figure adds straight on.
        let dbm_nf = thermal_noise_dbm(1e9, 5.0);
        assert!((dbm_nf - dbm - 5.0).abs() < 1e-9);
    }

    #[test]
    fn dbm_round_trip() {
        for dbm in [-100.0, -30.0, 0.0, 27.0] {
            assert!((watts_to_dbm(dbm_to_watts(dbm)) - dbm).abs() < 1e-9);
        }
        assert!((dbm_to_watts(30.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_watts(27.0) - 0.501).abs() < 1e-3);
    }

    #[test]
    fn db_ratio_round_trip() {
        for db in [-40.0, -3.0, 0.0, 13.0] {
            assert!((ratio_to_db(db_to_ratio(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn awgn_power_matches_request() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Signal::zeros(1e6, 0.0, 50_000);
        add_awgn(&mut s, 1e-9, &mut rng);
        assert!((s.power() / 1e-9 - 1.0).abs() < 0.05);
    }

    #[test]
    fn zero_noise_is_noop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = Signal::tone(1e6, 0.0, 0.0, 1.0, 100);
        let before = s.clone();
        add_awgn(&mut s, 0.0, &mut rng);
        assert_eq!(s, before);
    }

    #[test]
    fn seeded_noise_is_reproducible() {
        let fill = || {
            let mut s = Signal::zeros(1e6, 0.0, 64);
            add_awgn(&mut s, 1.0, &mut StdRng::seed_from_u64(7));
            s
        };
        assert_eq!(fill(), fill());
    }

    fn next4(rng: &mut StdRng) -> [u64; 4] {
        std::array::from_fn(|_| rng.gen())
    }

    /// `rng` after `words` draws.
    fn advanced(rng: &StdRng, words: usize) -> StdRng {
        let mut r = rng.clone();
        for _ in 0..words {
            let _: u64 = r.gen();
        }
        r
    }

    #[test]
    fn every_fill_draws_one_word_or_none() {
        for n in [0, 1, 7, SPLIT_MIN + 1, 40_000] {
            let start = StdRng::seed_from_u64(0xD1 ^ n as u64);
            for level in [0.0, -1.0, 1e-12, 2.0] {
                let words = usize::from(level > 0.0);
                let mut rng = start.clone();
                add_awgn(&mut Signal::zeros(1e6, 0.0, n), level, &mut rng);
                assert_eq!(rng, advanced(&start, words), "AWGN, n={n}, level {level}");
                let mut rng = start.clone();
                assert_eq!(fill_key(&mut rng, level).is_some(), words == 1);
                assert_eq!(rng, advanced(&start, words), "key, level {level}");
            }
            let mut rng = start.clone();
            let x = draw_normal(&mut rng);
            assert_eq!(rng, advanced(&start, 1), "scalar draw");
            assert_eq!(x.to_bits(), normal(start.clone().gen(), 0, 0).to_bits());
        }
    }

    /// A helper claim, waiting out other tests that hold it; `None` on
    /// a 1-core host.
    fn forced_claim() -> Option<par::Claim> {
        if par::cores() < 2 {
            return None;
        }
        loop {
            if let Some(c) = par::claim() {
                return Some(c);
            }
            std::thread::yield_now();
        }
    }

    /// Every fill path — the public function (split or not, as the
    /// helper allows), a forced split and the serial fill — against a
    /// per-sample loop over [`normal`] on the fill's key: sample bits,
    /// and the RNG one word past its start.
    #[test]
    fn split_fills_match_a_per_sample_loop() {
        type Fill<T> = fn(&mut [T], &mut StdRng, u8);
        let awgn: Fill<Cpx> = |xs, rng, path| match path {
            0 => {
                let mut sig = Signal::new(1e9, 0.0, xs.to_vec());
                add_awgn(&mut sig, 0.3, rng);
                xs.copy_from_slice(&sig.samples);
            }
            1 => awgn_fill(forced_claim(), xs, 0.3, rng.gen()),
            _ => awgn_fill(None, xs, 0.3, rng.gen()),
        };
        let real: Fill<f64> = |xs, rng, path| match path {
            0 => add_real_noise_keyed(xs, 0.7, rng.gen()),
            1 => real_noise_fill(forced_claim(), xs, 0.7, rng.gen()),
            _ => real_noise_fill(None, xs, 0.7, rng.gen()),
        };
        for n in [
            0,
            1,
            SPLIT_MIN - 1,
            SPLIT_MIN,
            SPLIT_MIN + 1,
            10_001,
            323_572,
        ] {
            let seed = 0xF111 ^ n as u64;
            let key: u64 = StdRng::seed_from_u64(seed).gen();
            let ref_next = next4(&mut advanced(&StdRng::seed_from_u64(seed), 1));

            let start: Vec<Cpx> = (0..n).map(|i| Cpx::new(i as f64, -(i as f64))).collect();
            let s = (0.3f64 / 2.0).sqrt();
            let reference: Vec<Cpx> = (0..n)
                .map(|i| start[i] + Cpx::new(normal(key, i, 0) * s, normal(key, i, 1) * s))
                .collect();
            let bits = |xs: &[Cpx]| -> Vec<(u64, u64)> {
                xs.iter()
                    .map(|c| (c.re.to_bits(), c.im.to_bits()))
                    .collect()
            };
            for path in 0..3 {
                let mut xs = start.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                awgn(&mut xs, &mut rng, path);
                assert!(
                    bits(&xs) == bits(&reference),
                    "AWGN bits, n={n} path {path}"
                );
                assert_eq!(next4(&mut rng), ref_next, "AWGN RNG, n={n} path {path}");
            }

            let start: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
            let reference: Vec<f64> = (0..n).map(|i| start[i] + normal(key, i, 0) * 0.7).collect();
            let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|v| v.to_bits()).collect() };
            for path in 0..3 {
                let mut xs = start.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                real(&mut xs, &mut rng, path);
                assert!(
                    bits(&xs) == bits(&reference),
                    "real-noise bits, n={n} path {path}"
                );
                assert_eq!(
                    next4(&mut rng),
                    ref_next,
                    "real-noise RNG, n={n} path {path}"
                );
            }
        }
    }

    #[test]
    fn noise_at_reads_matches_the_full_fill() {
        // The read samples carry the full fill's bits; the rest stay
        // untouched.
        let n = 9_000;
        let start: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut full = start.clone();
        add_real_noise_keyed(&mut full, 0.4, 0xAB);
        let reads = [0, 1, 2, 517, 518, 4_000, n - 2, n - 1];
        let mut sparse = start.clone();
        add_real_noise_at(&mut sparse, reads, 0.4, 0xAB);
        for i in 0..n {
            let want = if reads.contains(&i) {
                full[i]
            } else {
                start[i]
            };
            assert_eq!(sparse[i].to_bits(), want.to_bits(), "sample {i}");
        }
    }

    #[test]
    fn real_noise_sigma() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v = vec![0.0; 100_000];
        add_real_noise_keyed(&mut v, 0.5, rng.gen());
        let var = v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64;
        assert!((var - 0.25).abs() < 0.01);
    }
}
