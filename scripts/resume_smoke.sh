#!/usr/bin/env bash
# Resume smoke test: stop a checkpointing gesmc_sample run mid-way — once
# with SIGKILL, once with SIGINT — resume it, and require the resumed
# outputs to be byte-identical to an uninterrupted run.  SIGINT must end the
# run cleanly: exit 130 with a `continue with --resume` hint on stderr, or
# exit 0 if the run had already finished.  Run from the repo root with the
# build dir as $1 (default: build).  Used by CI in both the Release and ASan
# jobs.
set -euo pipefail

BUILD_DIR="${1:-build}"
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

# keep-checkpoints: if the "interrupted" run wins the race and completes,
# the default cleanup would delete the very checkpoints the resume reads.
# One thread and a 10k-node graph keep a run long enough (~0.6 s in a
# Release build on a 4-vCPU x86-64 VM) for the signal to land mid-run.
SAMPLE="$BUILD_DIR/gesmc_sample"
ARGS=(--gen powerlaw --set gen-n=10000 --replicates 6 --supersteps 12
      --seed 7 --threads 1 --checkpoint-every 2 --set keep-checkpoints=true
      --quiet)

echo "resume_smoke: reference (uninterrupted) run"
"$SAMPLE" "${ARGS[@]}" --output-dir "$WORK_DIR/ref" > /dev/null

# interrupt_run DIR SIGNAL: runs into DIR, sends SIGNAL once the first
# checkpoint lands, and leaves the run's exit status in $status and its
# stderr in DIR.err.
interrupt_run() {
    local dir="$1" signal="$2" pid
    "$SAMPLE" "${ARGS[@]}" --output-dir "$dir" > /dev/null 2> "$dir.err" &
    pid=$!
    for _ in $(seq 1 3000); do
        if ls "$dir/checkpoints/"*.gesc > /dev/null 2>&1; then break; fi
        if ! kill -0 "$pid" 2> /dev/null; then break; fi # run finished already
        sleep 0.01
    done
    kill "-$signal" "$pid" 2> /dev/null || true
    status=0
    wait "$pid" 2> /dev/null || status=$?
}

# resume_and_compare DIR: resumes the run in DIR and byte-compares every
# replicate against the reference.  If the signal landed mid-run, some
# replicates are finished, some in-flight, some unstarted; if the run won
# the race and completed, the resume degenerates to a skip-everything pass —
# the comparison must hold either way.
resume_and_compare() {
    local dir="$1" count=0 f
    "$SAMPLE" "${ARGS[@]}" --resume "$dir" > /dev/null
    for f in "$WORK_DIR"/ref/replicate_*.txt; do
        cmp "$f" "$dir/$(basename "$f")"
        count=$((count + 1))
    done
    test "$count" -eq 6
    echo "resume_smoke: $count replicates byte-identical after resume"
}

echo "resume_smoke: interrupted run (SIGKILL once the first checkpoint lands)"
interrupt_run "$WORK_DIR/kill" KILL
resume_and_compare "$WORK_DIR/kill"

echo "resume_smoke: interrupted run (SIGINT once the first checkpoint lands)"
interrupt_run "$WORK_DIR/int" INT
if [ "$status" -eq 130 ]; then
    if ! grep -qF "continue with --resume $WORK_DIR/int" "$WORK_DIR/int.err"; then
        echo "resume_smoke: exit 130 without a resume hint:" >&2
        cat "$WORK_DIR/int.err" >&2
        exit 1
    fi
elif [ "$status" -ne 0 ]; then
    echo "resume_smoke: SIGINT run exited $status (want 130, or 0 if done):" >&2
    cat "$WORK_DIR/int.err" >&2
    exit 1
fi
echo "resume_smoke: SIGINT run exited $status"
resume_and_compare "$WORK_DIR/int"
echo "resume_smoke: OK"
