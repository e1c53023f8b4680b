#!/usr/bin/env sh
# Smoke-runs the black-box attack engine: the full eight-scheme
# differential oracle (recovered model vs static model, exit 1 on any
# mismatch), the golden JSON reports, the JSON report shape, one DSL
# scheme per recoverable family, and the honest Opaque declaration. Runs
# in the debug-test job on purpose — the probe oracles and the recovery
# verifier carry debug assertions.
set -eu
cd "$(dirname "$0")/.."

PCACHE="cargo run -q -p primecache-cli --bin pcache --"

# All eight built-ins: recovery, differential verdict, eviction tiers.
$PCACHE attack >/dev/null

# The full reports match the golden files byte for byte (captured before
# the probe oracle reused one cache per oracle; any drift in a probe
# answer moves a probe count in them).
$PCACHE attack --json | cmp - tests/data/attack_report_seed_default.json
$PCACHE attack --json --seed 7 | cmp - tests/data/attack_report_seed7.json

# Versioned JSON report.
$PCACHE attack --scheme pMod --json | grep -q '"schema":"primecache.attack-report"'
$PCACHE attack --scheme pMod --json | grep -q '"version":1'

# One DSL scheme per recoverable family, plus the Opaque fallback (which
# must agree with the static Opaque model, not fail).
for src in 'a % 1021' '(a ^ (a >> 11)) & 2047' \
    '((9 * (a >> 11)) + a) & 2047' '((a % 2039) ^ (a >> 13)) & 2047'; do
    $PCACHE attack --expr "$src" >/dev/null
done

# A degenerate scheme is refused by the lint gate, not probed.
if $PCACHE attack --expr 'a % 2046' >/dev/null 2>&1; then
    echo "ERROR: composite modulus passed the attack lint gate" >&2
    exit 1
fi

echo "attack smoke passed"
