"""Scaling sweep (not gated): `construct` once per shape for n = 3..12 and
`hilbert_function` on the quartic shape for n = 3..6, each traced, with
the layers that took the most self time.

    python3 bench/sweep.py

Times are wall times of the traced call, so they include the tracing
overhead.  It also records whether the library's own
`generate.forward_datum` can draw each datum (its parameter pool is fixed
at 61 values).  Writes bench/out/sweep.json and prints a Markdown table.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import OUT, Lib  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SHAPES, Forward, HilbertRanks, _rng, shape_counts  # noqa: E402

SEED = 0
CONSTRUCT_DIMS = range(3, 13)
HILBERT_DIMS = range(3, 7)


def traced(call):
    tracer = Tracer()
    tracer.install()
    start = perf_counter()
    try:
        result = call()
    finally:
        wall = perf_counter() - start
        tracer.uninstall()
    layers = tracer.layer_metrics()
    selfs = {k[: -len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
    return result, wall, [(name, value / wall) for name, value in top], layers


def main() -> int:
    lib = Lib()
    rows = []
    print("| op | n | wall s | ok | top self time (share of wall) | curve_equals incl. "
          "| library forward_datum |")
    print("|---|---|---|---|---|---|---|")
    for n in CONSTRUCT_DIMS:
        for shape in SHAPES:
            fwd = Forward(lib, n, shape, _rng(SEED, "sweep", n, shape))
            cert, wall, top, layers = traced(lambda: lib.construct_mod.construct(fwd.datum))
            ok = checks.same_curve([list(f.coeffs) for f in cert.curve.forms], fwd.generator_inv)
            p, l = shape_counts(n, shape)
            try:
                lib.generate.forward_datum(n, p, l, _rng(SEED, "sweep-lib", n, shape))
                library = "ok"
            except ValueError as exc:
                library = f"ValueError: {exc}"
            rows.append({"op": f"construct ({shape})", "n": n, "wall_s": wall, "ok": ok,
                         "top": top, "library_forward_datum": library, "layers": layers})
            equals = layers["curves.curve_equals.time_s"] / wall
            print(f"| construct ({shape}) | {n} | {wall:.3f} | {ok} | "
                  + ", ".join(f"{name} {share:.0%}" for name, share in top)
                  + f" | {equals:.0%} | {library} |", flush=True)
    hilbert = HilbertRanks(lib, SEED, "")
    for n in HILBERT_DIMS:
        op = hilbert._quartic_op(SEED, "sweep", n)
        report, wall, top, layers = traced(op.call)
        ok = op.check(report)
        rows.append({"op": "hilbert (quartic)", "n": n, "wall_s": wall, "ok": ok,
                     "top": top, "layers": layers})
        print(f"| hilbert (quartic) | {n} | {wall:.3f} | {ok} | "
              + ", ".join(f"{name} {share:.0%}" for name, share in top) + " | | |", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps({"seed": SEED, "rows": rows}, indent=1))
    return 0 if all(r["ok"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
