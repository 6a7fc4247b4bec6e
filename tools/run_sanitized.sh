#!/usr/bin/env bash
# Configure, build, and run the full test suite under ASan + UBSan (the
# `sanitize` CMake preset, building into build-sanitize/). The preset
# builds with -O2 -g and no -DNDEBUG, so every TCPPR_DCHECK is live. Any
# sanitizer report fails the run: -fno-sanitize-recover=all aborts on the
# first diagnostic, and halt_on_error catches anything ASan would merely
# log.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset sanitize
cmake --build --preset sanitize -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:${UBSAN_OPTIONS:-}"
ctest --preset sanitize -j "$(nproc)" "$@"
