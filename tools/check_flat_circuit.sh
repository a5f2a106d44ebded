#!/bin/sh
# Static lint over the per-gate hot path of a compile: the emitters,
# the peephole, the Pauli-frame verifier, the metrics and the lowering
# tail read and write a circuit's int codes in place (DESIGN §20).
# Calling Circuit.gates, Circuit.to_list or Circuit.of_gates there
# boxes every gate of the circuit into a Gate.t and back, so those
# conversions are banned from these files:
#
#   lib/synthesis/emit.ml  lib/synthesis/ft_backend.ml
#   lib/synthesis/sc_backend.ml  lib/opt/phoenix_backend.ml
#   lib/gatelevel/peephole.ml  lib/verify/pauli_frame.ml
#   lib/core/report.ml  lib/core/compiler.ml
#
# Exit 1 with a file:line listing when an unlisted occurrence appears,
# and also when an allowlist entry matches no site: a stale entry would
# silently permit a future conversion in that file.  Grep-level, like
# tools/check_determinism.sh: no build needed, and the allowlist makes
# every accepted occurrence a reviewed, documented decision.

set -eu
cd "$(dirname "$0")/.."

files="lib/synthesis/emit.ml lib/synthesis/ft_backend.ml lib/synthesis/sc_backend.ml \
lib/opt/phoenix_backend.ml lib/gatelevel/peephole.ml lib/verify/pauli_frame.ml \
lib/core/report.ml lib/core/compiler.ml"

# path:pattern pairs that are allowed to remain (none today; an entry
# must name a cold site and say why beside it).
allowlist="
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
    printf 'check_flat_circuit: stale allowlist entry %s: no %s in %s\n' \
      "$entry" "$pattern" "$file" >&2
    status=1
  fi
done

for pattern in 'Circuit.gates' 'Circuit.to_list' 'Circuit.of_gates'; do
  # shellcheck disable=SC2086
  hits=$(grep -n -F "$pattern" $files /dev/null || true)
  [ -n "$hits" ] || continue
  printf '%s\n' "$hits" | {
    bad=0
    while IFS=: read -r file line text; do
      if allowed "$file" "$pattern"; then
        continue
      fi
      printf 'check_flat_circuit: %s:%s: boxed conversion %s\n' "$file" "$line" "$pattern" >&2
      printf '  %s\n' "$text" >&2
      bad=1
    done
    exit $bad
  } || status=1
done

if [ "$status" -ne 0 ]; then
  echo "check_flat_circuit: FAILED — Gate.t conversions on the flat-circuit hot path, or stale allowlist entries" >&2
  echo "(read Circuit.codes/angles or add codes through Circuit.Builder, or add/remove a reviewed 'file:pattern' entry in tools/check_flat_circuit.sh)" >&2
  exit 1
fi
echo "check_flat_circuit: OK"
