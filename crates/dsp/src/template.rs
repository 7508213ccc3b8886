//! Cached waveform templates.
//!
//! Packet assembly re-synthesizes the same reference waveforms on every
//! trial: the Field-1 triangular and Field-2 sawtooth chirps of the
//! preamble (paper §8). Synthesis
//! is trigonometry per sample — far more expensive than the memcpy that
//! actually ends up in the packet buffer — so this module memoizes the
//! generated [`Signal`]s in a thread-local cache keyed by the exact
//! synthesis parameters (bit patterns of every `f64` field).
//!
//! Generation is deterministic, so a copied template is bitwise
//! identical to a fresh synthesis; the equivalence tests in
//! `tests/workspace_equivalence.rs` pin that contract.
//!
//! Telemetry: `dsp.template.hit.local` / `dsp.template.miss.local`
//! (per-thread caches, hence `.local` — warm-up counts vary with
//! `MILBACK_THREADS`).

use crate::chirp::ChirpConfig;
use crate::signal::Signal;
use milback_telemetry as telemetry;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Exact-parameter template identity. `f64` fields are keyed by their
/// bit patterns: configs that differ by any ULP synthesize separately,
/// which is what bitwise reproducibility demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Sawtooth {
        f_start: u64,
        f_stop: u64,
        duration: u64,
        fs: u64,
        amplitude: u64,
    },
    Triangular {
        f_start: u64,
        f_stop: u64,
        duration: u64,
        fs: u64,
        amplitude: u64,
    },
}

/// Bound on distinct cached templates per thread. Real workloads use a
/// handful of chirp configs; the bound only exists so a pathological
/// caller (e.g. a sweep over TX power) cannot grow the cache without
/// limit.
const MAX_TEMPLATES: usize = 64;

thread_local! {
    static TEMPLATES: RefCell<HashMap<Key, Rc<Signal>>> = RefCell::new(HashMap::new());
}

fn chirp_key(cfg: &ChirpConfig, triangular: bool) -> Key {
    let (f_start, f_stop, duration, fs, amplitude) = (
        cfg.f_start.to_bits(),
        cfg.f_stop.to_bits(),
        cfg.duration.to_bits(),
        cfg.fs.to_bits(),
        cfg.amplitude.to_bits(),
    );
    if triangular {
        Key::Triangular {
            f_start,
            f_stop,
            duration,
            fs,
            amplitude,
        }
    } else {
        Key::Sawtooth {
            f_start,
            f_stop,
            duration,
            fs,
            amplitude,
        }
    }
}

fn lookup(key: Key, synth: impl FnOnce() -> Signal) -> Rc<Signal> {
    TEMPLATES.with(|t| {
        let mut map = t.borrow_mut();
        if let Some(s) = map.get(&key) {
            telemetry::counter_add("dsp.template.hit.local", 1);
            return s.clone();
        }
        telemetry::counter_add("dsp.template.miss.local", 1);
        if map.len() >= MAX_TEMPLATES {
            // Full flush on overflow: templates are cheap to rebuild and
            // overflow means the workload isn't template-shaped anyway.
            map.clear();
        }
        let s = Rc::new(synth());
        map.insert(key, s.clone());
        s
    })
}

/// The cached sawtooth chirp for `cfg` (synthesized on first use).
pub fn sawtooth(cfg: &ChirpConfig) -> Rc<Signal> {
    lookup(chirp_key(cfg, false), || cfg.sawtooth())
}

/// The cached triangular chirp for `cfg` (synthesized on first use).
pub fn triangular(cfg: &ChirpConfig) -> Rc<Signal> {
    lookup(chirp_key(cfg, true), || cfg.triangular())
}

/// Number of templates currently cached on this thread (diagnostics).
pub fn cached_count() -> usize {
    TEMPLATES.with(|t| t.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chirp_templates_match_fresh_synthesis_bitwise() {
        let cfg = ChirpConfig {
            f_start: 26.5e9,
            f_stop: 29.5e9,
            duration: 2e-6,
            fs: 3.2e9,
            amplitude: 0.7,
        };
        assert_eq!(*sawtooth(&cfg), cfg.sawtooth());
        assert_eq!(*triangular(&cfg), cfg.triangular());
        // Hits return the same allocation, not a re-synthesis.
        assert!(Rc::ptr_eq(&sawtooth(&cfg), &sawtooth(&cfg)));
    }

    /// A chirp config that differs from the Fast Field-2 chirp only in
    /// amplitude, so each `amplitude` is its own template.
    fn at_amplitude(amplitude: f64) -> ChirpConfig {
        ChirpConfig {
            f_start: 26.5e9,
            f_stop: 29.5e9,
            duration: 5e-9,
            fs: 3.2e9,
            amplitude,
        }
    }

    #[test]
    fn distinct_configs_get_distinct_templates() {
        std::thread::spawn(|| {
            let a = sawtooth(&at_amplitude(1.0));
            let b = sawtooth(&at_amplitude(0.5));
            assert_ne!(*a, *b);
            // Same config, other shape: a template of its own.
            let c = triangular(&at_amplitude(1.0));
            assert_ne!(*a, *c);
            assert_eq!(cached_count(), 3);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn overflow_flushes_but_stays_correct() {
        std::thread::spawn(|| {
            for k in 1..=(MAX_TEMPLATES + 8) {
                let cfg = at_amplitude(k as f64);
                assert_eq!(*sawtooth(&cfg), cfg.sawtooth());
            }
            assert!(cached_count() <= MAX_TEMPLATES);
            // Post-flush lookups still return correct waveforms.
            let cfg = at_amplitude(4.0);
            assert_eq!(*sawtooth(&cfg), cfg.sawtooth());
        })
        .join()
        .unwrap();
    }
}
