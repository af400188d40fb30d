#!/bin/sh
# Configure, build and run the test suite under each sanitizer in a
# sibling build tree (build-asan/, build-ubsan/, build-tsan/); the UBSan
# tree is a Debug build, so asserts run there. Driven by
# `make sanitize-matrix`; also runnable directly. Pass ctest arguments
# after `--` to narrow the run, e.g.
#
#   tools/sanitize-matrix.sh -- -L chaos
#
# runs only the chaos suite under all three sanitizers.
set -eu

SRC=$(
  cd "$(dirname "$0")/.."
  pwd
)

CTEST_ARGS=""
if [ "${1:-}" = "--" ]; then
  shift
  CTEST_ARGS="$*"
fi

JOBS=$(nproc 2>/dev/null || echo 4)

for ENTRY in address:build-asan undefined:build-ubsan thread:build-tsan; do
  SAN=${ENTRY%%:*}
  DIR=$SRC/${ENTRY#*:}
  # The default RelWithDebInfo build defines NDEBUG, so the undefined leg
  # is a Debug build: the one leg that runs every assert.
  TYPE=RelWithDebInfo
  if [ "$SAN" = undefined ]; then
    TYPE=Debug
  fi
  echo "== sanitize-matrix: $SAN, $TYPE ($DIR) =="
  cmake -S "$SRC" -B "$DIR" -DMEDLEY_SANITIZE="$SAN" \
    -DCMAKE_BUILD_TYPE="$TYPE" >/dev/null
  cmake --build "$DIR" -j "$JOBS"
  if [ -n "$CTEST_ARGS" ]; then
    # shellcheck disable=SC2086 # CTEST_ARGS is intentionally word-split.
    (cd "$DIR" && ctest --output-on-failure -j "$JOBS" $CTEST_ARGS)
  else
    # Default run: every suite. It includes SanitizerSmokeTest, whose
    # traced co-execution and churning storm fleet drive the trace
    # recording, its CSV export and the churn hook on real workloads.
    (cd "$DIR" && ctest --output-on-failure -j "$JOBS")
    # Fleet smoke leg: the sharded engine's phase barriers and mailbox
    # columns are exactly the protocol TSan exists to check. The fleet
    # suite already ran above under the chaos label; running it once
    # more by name means a label reshuffle can never silently drop it
    # from the matrix.
    (cd "$DIR" && ctest --output-on-failure -R "Fleet|LatencyHistogram")
  fi
done

echo "== sanitize-matrix: all sanitizers passed =="
