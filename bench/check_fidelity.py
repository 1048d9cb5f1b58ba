#!/usr/bin/env python3
"""Validator for the numerical-fidelity report JSON (--fidelity-report).

Structural checks always run: the document must carry the probe_interval /
probes / layers / rns / bfp / photonic / drift sections written by
obs::fidelity::writeReportFile, the RNS overflow margin must be a sane bit
count (0..64), the sampled RNS oracle cannot report more mismatches than
checks, and every per-layer entry must be internally consistent (probe
count matches its error histograms, matching-bits statistics inside the
encodable 0..64 range).

Floors and ceilings are opt-in, mirroring check_regression.py's
--counter-min style:

  check_fidelity.py report.json \
      [--min-probes N]        total shadow probes recorded
      [--min-layers N]        distinct instrumented layer labels
      [--min-rns-checks N]    RNS margin observations (modularDot,
                               modularGemm, and the RNS reference kernel
                               the sampled oracle replays through)
      [--min-margin BITS]     worst-case RNS overflow margin floor
      [--min-bfp-groups N]    BFP groups encoded
      [--min-drift-alerts N]  fidelity drift alerts raised
      [--max-residue-errors N] photonic shadow-probe mismatch ceiling
                               (mismatches are expected under injected
                               noise, so this is opt-in, not default)
      [--max-rns-mismatches N] sampled RNS oracle mismatch ceiling: the
                               integer-dot BFP GEMM against its residue/CRT
                               round trip, which Eq. (13) makes agree

Exits non-zero when any check fails.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"FAIL  fidelity: {msg}")
    return False


def check_structure(doc):
    ok = True
    for key in ("probe_interval", "probes", "layers", "rns", "bfp",
                "photonic", "drift"):
        if key not in doc:
            ok = fail(f"missing top-level section {key!r}")
    if not ok:
        return False

    rns = doc["rns"]
    for key in ("dot_checks", "overflow_margin_min", "overflow_risk",
                "reduced_fallbacks", "oracle_checks", "oracle_mismatches"):
        if key not in rns:
            ok = fail(f"missing rns.{key}")
    margin = rns.get("overflow_margin_min")
    if isinstance(margin, (int, float)) and not 0 <= margin <= 64:
        ok = fail(f"rns.overflow_margin_min = {margin} outside 0..64")
    checks = rns.get("oracle_checks")
    mismatches = rns.get("oracle_mismatches")
    if (isinstance(checks, (int, float))
            and isinstance(mismatches, (int, float))
            and mismatches > checks):
        ok = fail(f"rns.oracle_mismatches = {mismatches} exceeds"
                  f" rns.oracle_checks = {checks}")

    for key in ("groups", "clipped_mantissas"):
        if key not in doc["bfp"]:
            ok = fail(f"missing bfp.{key}")
    for key in ("snr_db_min", "mvm_probes", "residue_checks",
                "residue_errors"):
        if key not in doc["photonic"]:
            ok = fail(f"missing photonic.{key}")
    for key in ("alerts", "series"):
        if key not in doc["drift"]:
            ok = fail(f"missing drift.{key}")

    for name, layer in doc["layers"].items():
        for key in ("probes", "rmse_bits", "maxrel_bits"):
            if key not in layer:
                ok = fail(f"layer {name!r} missing {key}")
                break
        else:
            probes = layer["probes"]
            for hist_key in ("rmse_bits", "maxrel_bits"):
                hist = layer[hist_key]
                if hist.get("count") != probes:
                    ok = fail(f"layer {name!r}: {hist_key}.count"
                              f" {hist.get('count')} != probes {probes}")
                for stat in ("mean", "min", "max"):
                    v = hist.get(stat)
                    if isinstance(v, (int, float)) and not 0 <= v <= 64:
                        ok = fail(f"layer {name!r}: {hist_key}.{stat}"
                                  f" = {v} outside 0..64")
    if ok:
        print(f"ok    fidelity: structure valid"
              f" ({len(doc['layers'])} layers,"
              f" {len(doc['drift']['series'])} drift series)")
    return ok


def check_floor(label, value, floor):
    if floor is None:
        return True
    if value < floor:
        return fail(f"{label} = {value:g} below floor {floor:g}")
    print(f"ok    fidelity: {label} = {value:g} (floor {floor:g})")
    return True


def check_ceiling(label, value, ceiling):
    if ceiling is None:
        return True
    if value > ceiling:
        return fail(f"{label} = {value:g} above ceiling {ceiling:g}")
    print(f"ok    fidelity: {label} = {value:g} (ceiling {ceiling:g})")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("--min-probes", type=float)
    parser.add_argument("--min-layers", type=float)
    parser.add_argument("--min-rns-checks", type=float)
    parser.add_argument("--min-margin", type=float)
    parser.add_argument("--min-bfp-groups", type=float)
    parser.add_argument("--min-drift-alerts", type=float)
    parser.add_argument("--max-residue-errors", type=float)
    parser.add_argument("--max-rns-mismatches", type=float)
    args = parser.parse_args()

    try:
        with open(args.report) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot load {args.report}: {exc}")
        return 1

    ok = check_structure(doc)
    if ok:
        ok &= check_floor("probes", float(doc["probes"]), args.min_probes)
        ok &= check_floor("layers", float(len(doc["layers"])),
                          args.min_layers)
        ok &= check_floor("rns.dot_checks",
                          float(doc["rns"]["dot_checks"]),
                          args.min_rns_checks)
        ok &= check_floor("rns.overflow_margin_min",
                          float(doc["rns"]["overflow_margin_min"]),
                          args.min_margin)
        ok &= check_floor("bfp.groups", float(doc["bfp"]["groups"]),
                          args.min_bfp_groups)
        ok &= check_floor("drift.alerts", float(doc["drift"]["alerts"]),
                          args.min_drift_alerts)
        ok &= check_ceiling("photonic.residue_errors",
                            float(doc["photonic"]["residue_errors"]),
                            args.max_residue_errors)
        ok &= check_ceiling("rns.oracle_mismatches",
                            float(doc["rns"]["oracle_mismatches"]),
                            args.max_rns_mismatches)
    print("fidelity report:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
