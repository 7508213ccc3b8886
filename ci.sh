#!/usr/bin/env bash
# CI gate: build, test, lint, format-check the whole workspace.
#
# Designed to work on an offline machine: all third-party crates are
# vendored as path dependencies (vendor/), so no registry access is
# needed. --offline makes cargo fail fast instead of hanging if
# something does try to reach a registry. clippy/rustfmt steps are
# skipped (with a warning) when the components are not installed.
set -euo pipefail
cd "$(dirname "$0")"

CARGO_FLAGS=(--offline --workspace)

echo "==> cargo build --release"
cargo build --release "${CARGO_FLAGS[@]}"

echo "==> cargo test"
# --no-fail-fast: a red test binary must not hide the results of the
# binaries after it.
cargo test -q --release --no-fail-fast "${CARGO_FLAGS[@]}"

echo "==> sessbench self-tests"
# The session benchmark is a standalone package (empty [workspace],
# path dependencies on crates/*), so the workspace build above never
# compiles it. Testing it here makes an rf/core API change that breaks
# the benchmark's build fail CI instead of the next benchmark run.
cargo test --release --offline --manifest-path sessbench/Cargo.toml

echo "==> figures --check results/ (paper bands + every capture byte for byte)"
# Regenerates every figure, table, ablation and survey capture in memory
# (~4 s), first failing on any paper band the typed rows miss (DESIGN.md
# §4), then at the first line that differs from the committed results/,
# on a capture results/ lacks and on a file in results/ that no
# generator writes.
cargo run --release --offline -p milback-bench --bin figures -- --check results/

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    # The allow-by-default lints guard the zero-allocation hot paths
    # (DESIGN.md §12–13): a redundant clone or a collect-then-iterate
    # chain is usually a hidden heap allocation, and index-based loops /
    # manual copy loops hide the slice patterns the cached channel
    # kernels rely on.
    # needless_pass_by_value keeps the batched/pooled APIs honest: a
    # by-value Vec or Signal argument on a hot path forces the caller to
    # clone out of its pool.
    cargo clippy --release "${CARGO_FLAGS[@]}" --all-targets -- -D warnings \
        -W clippy::redundant_clone -W clippy::needless_collect \
        -W clippy::needless_range_loop -W clippy::manual_memcpy \
        -W clippy::needless_pass_by_value
    # Library paths of the protocol/session layers — and the node/RF/AP/
    # DSP substrate they call into — must not unwrap: every fallible
    # outcome is a typed error or a Degradation report (DESIGN.md §14).
    # --lib skips #[cfg(test)] modules; --no-deps keeps the lint off the
    # vendored stubs.
    cargo clippy --release --offline --lib --no-deps \
        -p milback -p milback-proto -p milback-node -p milback-rf \
        -p milback-ap -p milback-dsp -p milback-hw -p milback-telemetry \
        -p milback-baseline -- -D warnings -W clippy::unwrap_used
else
    echo "==> clippy not installed; skipping lint" >&2
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    # Vendored stubs keep upstream-ish layout and are exempt from house style.
    cargo fmt --check -p milback -p milback-dsp -p milback-rf -p milback-hw \
        -p milback-proto -p milback-node -p milback-ap -p milback-baseline \
        -p milback-bench -p milback-repro -p milback-telemetry
else
    echo "==> rustfmt not installed; skipping format check" >&2
fi

echo "==> session paths read no ground truth (no true_orientation/plan_tones/use_truth in session, lanes, serve, net)"
# A session plans its carriers once per packet, from the AP orientation
# its own Field-2 burst sensed; a shed session plans from the lane's
# last sensed one (DESIGN.md §14.2, §15.1). Neither the ground-truth
# orientation nor the public link wrappers' per-call tone planning may
# come back onto those paths.
if grep -nE 'true_orientation|plan_tones|use_truth' crates/core/src/{session,lanes,serve,net}.rs; then
    echo "ground truth or per-call tone planning on a session path (matches above)" >&2
    exit 1
fi

echo "==> docs freshness (DESIGN.md section refs and backticked Rust paths in the docs resolve)"
# Every "DESIGN.md §N" reference in the top-level maps and in the code,
# tests and examples must point at a real "## N." heading in DESIGN.md —
# a renumbered or deleted design section must not leave dangling
# pointers in the architecture docs or in doc comments.
for n in $(grep -rho 'DESIGN\.md §[0-9]\+' ARCHITECTURE.md README.md crates tests examples | grep -o '[0-9]\+$' | sort -un); do
    grep -q "^## $n\." DESIGN.md || {
        echo "DESIGN.md §$n is referenced (ARCHITECTURE.md, README.md, crates, tests or examples) but DESIGN.md has no '## $n.' heading" >&2
        grep -rn "DESIGN\.md §$n\b" ARCHITECTURE.md README.md crates tests examples >&2 || true
        exit 1
    }
done
# Every backticked Rust path (`a::b`, one-level groups `a::{b, c}`
# expanded) in the design and architecture docs must name something
# still defined in the source: its last segment must be an item, an enum
# variant or struct field, or a module file under crates, tests,
# examples or sessbench/src. std/core/alloc, primitive-type and lint
# (clippy::, rustdoc::) paths are skipped, as are brace globs such as
# `field{1,2}_x` and `file.rs::test` references. A deleted or renamed
# item must not leave its name in the docs.
DOC_SRC=(crates tests examples sessbench/src)
defined=$(mktemp)
{
    grep -rhoE '\b(fn|struct|enum|trait|type|const|static|mod|union)\s+[A-Za-z_][A-Za-z0-9_]*' \
        --include='*.rs' "${DOC_SRC[@]}" | awk '{print $2}'
    grep -rhoE '^\s*(pub(\([a-z]+\))?\s+)?[A-Za-z_][A-Za-z0-9_]*\s*(:[^:]|,|\(|\{|=|$)' \
        --include='*.rs' "${DOC_SRC[@]}" | sed -E 's/^\s*(pub(\([a-z]+\))?\s+)?//; s/[^A-Za-z0-9_].*//'
    find "${DOC_SRC[@]}" -name '*.rs' | sed -E 's#^.*/##; s#\.rs$##'
    find "${DOC_SRC[@]}" -name mod.rs | sed -E 's#/mod\.rs$##; s#^.*/##'
} | sort -u >"$defined"
stale=0
for doc in DESIGN.md ARCHITECTURE.md README.md tests/README.md; do
    while IFS=: read -r line path; do
        case "$path" in
            std::* | core::* | alloc::* | clippy::* | rustdoc::* | f32::* | f64::* | i8::* | i16::* | \
                i32::* | i64::* | i128::* | isize::* | u8::* | u16::* | u32::* | u64::* | u128::* | \
                usize::* | bool::* | char::* | str::*) continue ;;
        esac
        path=${path%::self}
        if ! grep -qxF "${path##*::}" "$defined"; then
            echo "$doc:$line: \`$path\` names nothing defined under ${DOC_SRC[*]}" >&2
            stale=1
        fi
    done < <(awk '{
        rest = $0
        while (match(rest, /`[^`]*`/)) {
            span = substr(rest, RSTART + 1, RLENGTH - 2)
            rest = substr(rest, RSTART + RLENGTH)
            while (match(span, /[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*::\{[^{}]*\}/)) {
                grp = substr(span, RSTART, RLENGTH)
                pre = substr(span, 1, RSTART - 1)
                post = substr(span, RSTART + RLENGTH)
                i = index(grp, "::{")
                prefix = substr(grp, 1, i - 1)
                k = split(substr(grp, i + 3, length(grp) - i - 3), parts, ",")
                out = ""
                for (j = 1; j <= k; j++) {
                    p = parts[j]
                    gsub(/^ +| +$/, "", p)
                    out = out " " prefix "::" p
                }
                span = pre out " " post
            }
            while (match(span, /[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+\{?/)) {
                path = substr(span, RSTART, RLENGTH)
                before = RSTART > 1 ? substr(span, RSTART - 1, 1) : ""
                span = substr(span, RSTART + RLENGTH)
                if (path ~ /\{$/ || before == ".") continue
                print NR ":" path
            }
        }
    }' "$doc")
done
rm -f "$defined"
[ "$stale" -eq 0 ] || exit 1

echo "==> cargo doc (rustdoc warnings are errors)"
# Same package list as fmt: vendored stubs are exempt from the docs gate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q \
    -p milback -p milback-dsp -p milback-rf -p milback-hw \
    -p milback-proto -p milback-node -p milback-ap -p milback-baseline \
    -p milback-bench -p milback-repro -p milback-telemetry

echo "==> one scratch home (no thread-local scratch in ap/rf/dsp, no retired helpers or caches)"
# A session renders and decodes only in its SessionCtx (DESIGN.md §12.2,
# §13); the only scratch thread-local left is Session::run's shared
# context in crates/core/src/session.rs. The ap and rf crates own no
# thread-local state at all, and the dsp crate only its caches of
# immutable tables (FFT plans, windows). The three retired
# try-borrow-or-fresh helpers must not come back anywhere in the code,
# nor the caches no workload re-read (DESIGN.md §12.3, §13.1): the
# chirp template module, the uplink query-tone cache, the downlink
# port-table cache and the keyed anti-alias FIR cache.
if grep -rn 'thread_local!' crates/ap/src crates/rf/src; then
    echo "thread-local state in the ap or rf crate (matches above)" >&2
    exit 1
fi
if grep -rn 'thread_local!' crates/dsp/src | grep -vE '^crates/dsp/src/(plan|window)\.rs:'; then
    echo "thread-local state in the dsp crate outside plan.rs and window.rs (matches above)" >&2
    exit 1
fi
if grep -rnwE 'with_workspace|with_channel_workspace|with_field2_burst' crates tests examples src sessbench/src; then
    echo "a retired scratch checkout helper is back (matches above)" >&2
    exit 1
fi
if grep -rnE 'milback_dsp::template|\b(QueryCache|PortKey|cached_fir)\b' crates tests examples src sessbench/src; then
    echo "a retired cache is back (matches above)" >&2
    exit 1
fi

echo "==> one dispatcher (thread::scope once in non-test crate code, in crates/core/src/batch.rs)"
# Worker threads start in one place, batch::run_stealing_with_threads
# (DESIGN.md §10.2): par_map's trials and the lane pool's session chains
# both run on its work-stealing loop. Each file is read up to its first
# #[cfg(test)]; tests may start threads of their own.
scopes=$(find crates/*/src -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ { nextfile } /thread::scope/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ "$(printf '%s\n' "$scopes" | grep -c .)" -ne 1 ] || [[ "$scopes" != crates/core/src/batch.rs:* ]]; then
    printf '%s\n' "$scopes" >&2
    echo "thread::scope must appear exactly once in non-test crate code, in crates/core/src/batch.rs (matches above)" >&2
    exit 1
fi

echo "==> kernel perf gate (burst FFT work + range FFT and burst timings vs committed baseline)"
# bench_engine is the gate and nothing else. It first checks a
# host-independent work count: one warmed, untimed localization burst
# must record the committed number and total size of FFTs (DESIGN.md
# §17.3). Then it times the localization burst and the range-FFT kernel
# on one core at full reps (matching how the baseline was recorded;
# ~4 s) and fails if either regressed more than 10% against the
# committed BENCH_6.json (an unreadable baseline fails at once), with
# bounded re-measures on a miss. The gate normalizes by the calibration
# workload (DESIGN.md §17.3) only when the baseline records
# timing_calibration.calib_us; BENCH_6.json does not, so this step
# compares raw wall clocks and is exposed to shared-host load. The gate
# prints which mode it ran in. The bitwise checks of the receive chain
# and the caches are tests (tests/README.md maps each), and the
# cross-process, cross-thread-count determinism views are compared by
# crates/core/tests/determinism.rs; both run in the cargo test step.
# The gate runs last: under `set -e` a red gate (ROADMAP item 1) would
# otherwise stop the script before the checks above.
cargo run --release --offline -p milback-bench --bin bench_engine -- \
    --check-against BENCH_6.json

echo "==> CI green"
