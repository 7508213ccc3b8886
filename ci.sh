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

echo "==> bench smoke (uplink-decimation/fabric-burst/two-core-burst/FFT-plan/waveform bitwise asserts, determinism legs)"
# --smoke shrinks every rep count; the run still asserts, untimed, that
# each stage of the uplink receiver's decimating FIR on a real
# Network::uplink capture matches the full-rate filter plus stride
# (DESIGN.md §17.2), that a cold fabric-style Field-2 burst (target
# alone, then with 3 parked neighbours, through a fresh
# ChannelWorkspace, check_fabric_burst) matches the uncached
# per-point-gain reference of DESIGN.md §13 and panics at the first
# differing sample (§13.5), that the gated localization burst with the
# two antennas' chains at once (two-core helper claimed,
# check_two_core_burst) matches the same burst under
# par::occupy(cores()) in every banded diff and the fix (§17.4, serial
# == two-core localization), that the cached-plan FFT matches an
# unplanned transform and that the waveform template matches fresh
# synthesis; then runs the chaos, serve and net determinism legs in one
# process, and times the two gated kernels, asserting that repeated
# workspace localization bursts return the same fix.
cargo run --release --offline -p milback-bench --bin bench_engine -- \
    --smoke --out target/bench_smoke.json >/dev/null

echo "==> kernel perf gate (burst + range FFT vs committed baseline)"
# First checks a host-independent work count: one warmed, untimed
# localization burst must record the committed number and total size
# of FFTs (DESIGN.md §17.3). Then re-times just the localization burst
# and the range-FFT kernel at full reps (matching how the baseline was
# recorded; ~4 s) and fails if either regressed more than 10% against
# the committed BENCH_6.json (an unreadable baseline fails at once),
# with bounded re-measures on a miss. The gate normalizes by the
# calibration workload (DESIGN.md §17.3) only when the baseline records
# timing_calibration.calib_us; BENCH_6.json does not, so this step
# compares raw wall clocks and is exposed to shared-host load. The gate
# prints which mode it ran in.
cargo run --release --offline -p milback-bench --bin bench_engine -- \
    --kernels-only --check-against BENCH_6.json

echo "==> determinism legs (cross-process, cross-thread-count views)"
# Each bench_engine leg runs its workload serially and in parallel and
# asserts identical outcomes and byte-identical telemetry deterministic
# views inside one process: chaos (sessions under sampled fault plans,
# DESIGN.md §14), serve (a Poisson schedule past the virtual server's
# capacity, §15) and net (the 2-AP fabric density sweep with drift,
# handoffs and interference, §16). Running each leg again in a fresh
# process at one worker and at four pins cross-process AND
# cross-thread-count determinism: the two view files must compare equal
# with cmp.
for leg in chaos serve net; do
    for t in 1 4; do
        MILBACK_TELEMETRY=1 MILBACK_THREADS=$t cargo run --release --offline -p milback-bench \
            --bin bench_engine -- --smoke --leg "$leg" --view "target/${leg}_view_$t.txt" >/dev/null
    done
    cmp "target/${leg}_view_1.txt" "target/${leg}_view_4.txt"
done

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

echo "==> CI green"
