#!/usr/bin/env python3
"""The model-clock gate: one repetition per ledger workload, printing
``model_digest[:16]``, ``sim.events`` and the error count (exit 1 on errors).

    PYTHONHASHSEED=0 python tools/ledger_digests.py [--seed N] [--scale S]
    PYTHONHASHSEED=0 python tools/ledger_digests.py --check
    PYTHONHASHSEED=0 python tools/ledger_digests.py --write --reason "why the model moved"

``--scale 1.0`` gives the digests of ``run.py --trace 0``, ``--scale 0.5`` those of
``--trace 1`` (~20 s each).  Run it on the parent commit and on the change: they
must be equal.

``--check`` runs every (seed, scale) in ``tools/digests.json`` and fails unless
every digest equals the committed one; ``sim.events`` is stored too but only
printed (``old -> new``), since an engine rewrite may legitimately remove events.
``--write`` re-records the file after a deliberate model change: it refuses an
empty ``--reason``, and every workload whose digest moved records the reason,
the date and the digest it replaced.
"""
import argparse
import datetime
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().with_name("digests.json")
#: what a fresh ``--write`` covers: smoke scale, the default seed and one more
DEFAULT_POINTS = {"20050404": ["0.04"], "1": ["0.04"]}


def _run(seed: int, scale: float, names=None) -> dict:
    """``{workload: (digest[:16], events, errors)}`` for one (seed, scale)."""
    import workloads  # read-only: nothing under benchmarks/perf changes
    out = {}
    for name in workloads.WORKLOADS:
        if names is not None and name not in names:
            continue
        plan = workloads.make_plan(name, seed, scale)
        if name == "fleet_faults":  # its first repetition is the clean run the
            workloads.run_repetition(plan)  # switch-death window is derived from
        rec = workloads.run_repetition(plan)
        out[name] = (rec.digest()[:16], rec.events, rec.errors)
    return out


def _print(name: str, digest: str, events: int, errors: list, note: str = "") -> None:
    print(f"{name:13s} {digest}  events={events:<8d} errors={len(errors)}{note}"
          + "".join(f"\n    {e}" for e in errors))


def check() -> int:
    stored = json.loads(DIGESTS.read_text())
    bad = 0
    for seed, scales in stored.items():
        for scale, entries in scales.items():
            print(f"-- seed {seed}, scale {scale}")
            got = _run(int(seed), float(scale), set(entries))
            for name in sorted(set(entries) - set(got)):
                print(f"{name:13s} no such workload")
                bad += 1
            for name, (digest, events, errors) in got.items():
                want = entries[name]
                note = ""
                if digest != want["digest"]:
                    note += f"  DIGEST MOVED (committed {want['digest']})"
                    bad += 1
                if events != want["events"]:
                    note += f"  sim.events {want['events']} -> {events}"
                bad += len(errors)
                _print(name, digest, events, errors, note)
    print("digests: " + ("OK" if not bad else f"FAIL ({bad} problem(s))"))
    return 1 if bad else 0


def write(reason: str) -> int:
    if not reason.strip():
        print("--write needs a non-empty --reason", file=sys.stderr)
        return 2
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {
        seed: {scale: {} for scale in scales} for seed, scales in DEFAULT_POINTS.items()}
    today = datetime.date.today().isoformat()
    failed = 0
    for seed, scales in stored.items():
        for scale, entries in scales.items():
            for name, (digest, events, errors) in _run(int(seed), float(scale)).items():
                failed += len(errors)
                _print(name, digest, events, errors)
                old = entries.get(name)
                if old is not None and old["digest"] == digest:
                    old["events"] = events
                    continue
                entries[name] = {"digest": digest, "events": events, "reason": reason,
                                 "date": today,
                                 "replaced": None if old is None else old["digest"]}
    if failed:
        print("workload errors: nothing written", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(stored, indent=2) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20050404)
    ap.add_argument("--scale", type=float, default=1.0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="assert the digests committed in tools/digests.json")
    mode.add_argument("--write", action="store_true",
                      help="re-record tools/digests.json (needs --reason)")
    ap.add_argument("--reason", default="", help="why the model moved (with --write)")
    args = ap.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]
    if args.check:
        return check()
    if args.write:
        return write(args.reason)
    failed = 0
    for name, (digest, events, errors) in _run(args.seed, args.scale).items():
        failed += len(errors)
        _print(name, digest, events, errors)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
