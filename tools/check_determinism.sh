#!/bin/sh
# Static nondeterminism lint over the deterministic core of the
# compiler.  The perf-counter subsystem, the schedulers (including the
# arena's parallel candidate scans), the synthesis backends, the
# gate-level metrics, the worker-team primitive, the batch pool, the
# analyzer's certificates, the linter's diagnostics, the verifiers, the
# Pauli kernel and IR, and hardware routing all promise byte-identical
# output across runs and --jobs/--sched-jobs
# settings; the cheapest way to keep that promise is to ban the usual
# sources of nondeterminism from their sources:
#
#   - Hashtbl.iter / Hashtbl.fold : iteration order depends on the
#     hash seed and insertion history; deterministic code must walk an
#     explicitly ordered structure instead.
#   - Random.self_init            : seeds from the environment.
#   - Unix.gettimeofday / Sys.time: wall clocks.  Allowed only at the
#     allowlisted timing-telemetry sites below, whose values are
#     confined to `seconds` / stage-timing fields that
#     Report.normalize_record zeroes.
#
# Exit 1 with a file:line listing when an unlisted occurrence appears,
# and also when an allowlist entry matches no site: a stale entry would
# silently permit a future clock read in that file.
# Grep-level analysis, deliberately: it runs in milliseconds, needs no
# build, and the allowlist makes every accepted occurrence a reviewed,
# documented decision.

set -eu
cd "$(dirname "$0")/.."

dirs="lib/core lib/schedule lib/synthesis lib/perf lib/pool lib/exec lib/gatelevel lib/opt \
lib/analysis lib/lint lib/verify lib/pauli lib/pauli_ir lib/hardware"

# path:pattern pairs that are allowed to remain.  Every entry is a
# timing-only site: the wall clock it reads lands in a field the
# record normalizer zeroes, so determinism of normalized output is
# unaffected.
allowlist="
lib/core/compiler.ml:Unix.gettimeofday
lib/core/report.ml:Unix.gettimeofday
lib/pool/batch.ml:Unix.gettimeofday
lib/pool/pool.ml:Unix.gettimeofday
"

allowed() {
  # $1 = file, $2 = pattern
  for entry in $allowlist; do
    [ "$entry" = "$1:$2" ] && return 0
  done
  return 1
}

status=0
for entry in $allowlist; do
  file=${entry%%:*}
  pattern=${entry#*:}
  if ! grep -qF "$pattern" "$file" 2>/dev/null; then
    printf 'check_determinism: stale allowlist entry %s: no %s in %s\n' \
      "$entry" "$pattern" "$file" >&2
    status=1
  fi
done

for pattern in 'Hashtbl.iter' 'Hashtbl.fold' 'Random.self_init' \
               'Unix.gettimeofday' 'Sys.time'; do
  # shellcheck disable=SC2086
  hits=$(grep -rn --include='*.ml' -F "$pattern" $dirs || true)
  [ -n "$hits" ] || continue
  printf '%s\n' "$hits" | {
    bad=0
    while IFS=: read -r file line text; do
      if allowed "$file" "$pattern"; then
        continue
      fi
      printf 'check_determinism: %s:%s: banned %s\n' "$file" "$line" "$pattern" >&2
      printf '  %s\n' "$text" >&2
      bad=1
    done
    exit $bad
  } || status=1
done

if [ "$status" -ne 0 ]; then
  echo "check_determinism: FAILED — nondeterminism primitives outside the allowlist, or stale allowlist entries" >&2
  echo "(fix the site, or add/remove a reviewed 'file:pattern' entry in tools/check_determinism.sh)" >&2
  exit 1
fi
echo "check_determinism: OK ($dirs)"
