"""The benchmark's workloads: seeded inputs, the ops that call the library,
and the check each op's answer must pass.

Every round draws fresh inputs from (seed, workload, round), so no codim-2
space is seen twice by the measured ops and the library's per-pencil row
cache cannot make a repeated op cheaper.  Inputs that touch no cache
(`verify`, `equivalent` and `expect` documents) are made once in set-up.

Inputs come from the library's public generators (`generate.random_rnc`,
`generate.random_datum`, `generate.random_point`, `generate.random_transform`,
`postulation.quartic_shape_spec`) and `curves.point_at_param` /
`curves.chord_space`.  Forward data are built here, not with
`generate.forward_datum`: that draws curve parameters from a fixed pool of
61 values and raises ValueError for (2,n+1) and (1,n+2) at n >= 8 and for
(3,n) at n >= 9.  `Forward` passes `distinct_parameters` a pool that grows
with the number of parameters.

Warm-up inputs are drawn from a fixed tag, not from the seed, so every run
does the same set-up work and `setup_s` does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from math import comb

import checks

SHAPES = ("n+3,0", "n+2,1", "3,n", "2,n+1", "1,n+2")
NOT_GENERIC_EXIT = 11  # the CLI's exit code for a NotGeneric refusal


def shape_counts(n: int, shape: str) -> tuple[int, int]:
    return {
        "n+3,0": (n + 3, 0),
        "n+2,1": (n + 2, 1),
        "3,n": (3, n),
        "2,n+1": (2, n + 1),
        "1,n+2": (1, n + 2),
    }[shape]


class Op:
    """One request: `call()` runs it, `check(result)` judges the answer and
    `digest(result)` fingerprints it for the determinism self-test."""

    __slots__ = ("kind", "n", "label", "call", "check", "digest", "input_bits")

    def __init__(self, kind, n, label, call, check, digest, input_bits=0):
        self.kind = kind
        self.n = n
        self.label = label
        self.call = call
        self.check = check
        self.digest = digest
        self.input_bits = input_bits


class Forward:
    """A datum satisfied by a seeded random curve, with spare parameters."""

    def __init__(self, lib, n: int, shape: str, rng: random.Random, spare: int = 0):
        p, l = shape_counts(n, shape)
        curve = lib.generate.random_rnc(n, rng)
        count = p + l * (n - 1) + spare
        params = lib.generate.distinct_parameters(count, rng, bound=max(30, count))
        self.points = [lib.curves.point_at_param(curve, t) for t in params[:p]]
        spaces = [
            lib.curves.chord_space(curve, params[p + k * (n - 1): p + (k + 1) * (n - 1)])
            for k in range(l)
        ]
        self.spare = params[p + l * (n - 1):]
        self.curve = curve
        self.datum = lib.pkg.Datum(n=n, spaces=spaces, points=self.points)
        self.generator_inv = checks.scaled_inverse(
            checks.integer_rows([f.coeffs for f in curve.forms])
        )
        self.bits = input_bits(self.datum.points, self.datum.spaces)


def input_bits(points, spaces) -> int:
    """Largest bit size of any coordinate or coefficient of an op's input."""
    numbers = [c for p in points for c in p.coords]
    numbers += [c for s in spaces for row in s.canonical for c in row]
    return max(checks.bits(c) for c in numbers)


WARMUP_SEED = "warmup"  # in place of --seed for the warm-up inputs


def _rng(*parts) -> random.Random:
    # string seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random("-".join(str(p) for p in parts))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _curve_forms_digest(cert) -> str:
    return _sha(repr([[str(c) for c in f.coeffs] for f in cert.curve.forms]))


class Workload:
    name = ""
    # how strongly this workload's op times follow the reference kernel's
    # (log-log slope): times are scaled by (REF_S / kernel time) ** exponent
    speed_exponent = 1.0
    # whether traced and untraced runs must print identical bytes
    compare_traced_output = False

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.setup_refusals = []

    def prepare(self):
        """Build the fixed inputs, yielding between steps so set-up can be
        timed in stages."""
        return iter(())

    def output_bytes(self, result) -> int:
        return 0


# -- cli-small ---------------------------------------------------------------


class CliSmall(Workload):
    """`rncgeo.cli.main(argv)` in process on documents written in set-up."""

    name = "cli-small"
    dims = range(3, 8)
    compare_traced_output = True

    def __init__(self, lib, seed: int, workdir: str):
        super().__init__(lib, seed, workdir)
        self.fixed = {}
        # what the CLI reports as `error_class` for NotGeneric and its subclasses
        self.not_generic_codes = _class_codes(lib.pkg.NotGeneric)

    def prepare(self):
        for n in self.dims:
            self.fixed[n] = self._fixed_docs(n)
            yield

    def output_bytes(self, result) -> int:
        return len(result[1].encode()) if result else 0

    def _write(self, name: str, doc) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path

    def _run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(argv)
        return code, buf.getvalue()

    def _op(self, kind, n, label, argv, expect_code, check_doc, bits=0):
        def check(result):
            code, out = result
            doc = json.loads(out)
            if code == NOT_GENERIC_EXIT and doc.get("error_class") in self.not_generic_codes:
                raise checks.Refused(f"exit {code}: {doc.get('message')}")
            return code == expect_code and check_doc(doc)

        def digest(result):
            return _sha(f"{result[0]}\n{result[1]}")

        return Op(kind, n, label, lambda: self._run(argv), check, digest, bits)

    def _fixed_docs(self, n: int) -> dict:
        """Certificates (genuine and tampered) and equivalence pairs."""
        lib = self.lib
        tag = f"fixed-n{n}"
        certs = []
        tampered = None
        for shape in SHAPES:
            fwd = Forward(lib, n, shape, _rng(self.seed, self.name, tag, shape))
            try:
                cert = lib.construct_mod.construct(fwd.datum)
            except lib.pkg.NotGeneric as exc:
                # no certificate, so no verify op for it; never redrawn
                self.setup_refusals.append(f"construct {tag}:{shape}: raised {exc!r}")
                continue
            doc = lib.serialize.to_doc(cert)
            certs.append((shape, self._write(f"{tag}-{shape}-cert.json", doc), fwd.bits))
            if shape == SHAPES[n % len(SHAPES)]:
                doc["curve"]["forms"] = _tampered(doc["curve"]["forms"])
                path = self._write(f"{tag}-{shape}-tampered.json", doc)
                tampered = (shape, path, fwd.bits)

        eq_shape = "n+3,0" if n % 2 else "3,n"
        rng = _rng(self.seed, self.name, tag, "equivalent")
        fwd = Forward(lib, n, eq_shape, rng, spare=1)
        image = lib.projective.apply_transform(
            lib.generate.random_transform(n, rng), fwd.datum
        )
        moved_points = list(fwd.points)
        moved_points[-1] = lib.curves.point_at_param(fwd.curve, fwd.spare[0])
        moved = lib.pkg.Datum(n=n, spaces=fwd.datum.spaces, points=moved_points)
        to_doc = lib.serialize.to_doc
        return {
            "certs": certs,
            "tampered": tampered,
            "eq_shape": eq_shape,
            "eq_bits": fwd.bits,
            "left": self._write(f"{tag}-eq-left.json", to_doc(fwd.datum)),
            "image": self._write(f"{tag}-eq-image.json", to_doc(image)),
            "moved": self._write(f"{tag}-eq-moved.json", to_doc(moved)),
        }

    def warmup_ops(self) -> list[Op]:
        ops = []
        for n in self.dims:
            fwd = Forward(self.lib, n, "3,n", _rng(WARMUP_SEED, self.name, n))
            path = self._write(f"warmup-n{n}.json", self.lib.serialize.to_doc(fwd.datum))
            ops.append(self._construct_op(n, "warmup", "3,n", path, fwd))
        return ops

    def _construct_op(self, n, label, shape, path, fwd):
        return self._op(
            "construct", n, f"{label}:{shape}", ["construct", path], 0,
            lambda doc: checks.same_curve(
                [[checks.frac(c) for c in f] for f in doc["curve"]["forms"]],
                fwd.generator_inv,
            ),
            fwd.bits,
        )

    def round_ops(self, r: int) -> list[Op]:
        lib = self.lib
        ops = []
        for n in self.dims:
            tag = f"r{r}-n{n}"
            for shape in SHAPES:
                fwd = Forward(lib, n, shape, _rng(self.seed, self.name, tag, shape))
                path = self._write(f"{tag}-{shape}.json", lib.serialize.to_doc(fwd.datum))
                ops.append(self._construct_op(n, tag, shape, path, fwd))

            for command in ("construct", "obstruct"):
                # separate data, so no op reuses another op's spaces
                datum, _ = lib.generate.random_datum(
                    n, 4, n - 1, _rng(self.seed, self.name, tag, command, "uniform")
                )
                path = self._write(f"{tag}-{command}-uniform.json", lib.serialize.to_doc(datum))
                ops.append(
                    self._op(command, n, f"{tag}:uniform", [command, path], 10,
                             _obstruction_check(datum),
                             input_bits(datum.points, datum.spaces))
                )

            fixed = self.fixed[n]
            for shape, path, bits in fixed["certs"]:
                ops.append(
                    self._op("verify", n, f"{tag}:{shape}", ["verify", path], 0,
                             lambda doc: doc["passed"] is True, bits)
                )
            if fixed["tampered"]:
                shape, path, bits = fixed["tampered"]
                ops.append(
                    self._op("verify", n, f"{tag}:{shape}:tampered", ["verify", path], 10,
                             lambda doc: doc["passed"] is False, bits)
                )
            for right, code in (("image", 0), ("moved", 10)):
                ops.append(
                    self._op(
                        "equivalent", n, f"{tag}:{fixed['eq_shape']}:{right}",
                        ["equivalent", fixed["left"], fixed[right]], code,
                        lambda doc, same=(code == 0): doc["equivalent"] is same,
                        fixed["eq_bits"],
                    )
                )

            options = [shape_counts(n, s) for s in SHAPES] + [(4, n - 1)]
            p, l = options[(r + n) % len(options)]
            verdict = "not_exists" if (p, l) == (4, n - 1) else "exists_unique"
            ops.append(
                self._op("expect", n, f"{tag}:{p},{l}", ["expect", str(n), str(p), str(l)],
                         0, lambda doc, v=verdict: doc["classification"] == v)
            )
        return ops


def _class_codes(cls) -> set:
    return {cls.code}.union(*(_class_codes(sub) for sub in cls.__subclasses__()))


def _tampered(forms):
    """The curve with one coefficient raised by 1, chosen so the coefficient
    matrix stays invertible (otherwise parsing, not verification, fails).
    Emitted curves are primitive integer forms."""
    for i in range(len(forms)):
        for k in range(len(forms[i])):
            trial = [list(f) for f in forms]
            trial[i][k] += 1
            try:
                checks.scaled_inverse(trial)
            except ValueError:
                continue
            return trial
    raise ValueError("no invertible tampering found")


def _obstruction_check(datum):
    """The certificate's quadric contains the datum's first two spaces,
    vanishes at its first three points and not at the fourth, evaluated
    here in exact arithmetic."""
    points = [p.coords for p in datum.points[:4]]
    spaces = [(s.f.coeffs, s.g.coeffs) for s in datum.spaces[:2]]

    def check(doc):
        if doc.get("kind") != "obstruction_certificate":
            return False
        quad = [checks.frac(c) for c in doc["quadric"]]
        monomials = doc["monomials"]
        values = [checks.quadric_value(quad, monomials, p) for p in points]
        return (
            values[0] == values[1] == values[2] == 0
            and values[3] != 0
            and all(checks.quadric_contains_space(quad, monomials, s) for s in spaces)
        )

    return check


# -- construct-large ---------------------------------------------------------


class ConstructLarge(Workload):
    """The library's `construct(datum)` on forward data at n = 7..9."""

    name = "construct-large"
    speed_exponent = 0.5
    dims = range(7, 10)

    def _op(self, n, label, shape, fwd) -> Op:
        lib = self.lib

        def check(cert):
            forms = [list(f.coeffs) for f in cert.curve.forms]
            return checks.same_curve(forms, fwd.generator_inv)

        return Op(
            "construct", n, f"{label}:{shape}",
            lambda: lib.construct_mod.construct(fwd.datum),
            check, _curve_forms_digest, fwd.bits,
        )

    def warmup_ops(self) -> list[Op]:
        return [
            self._op(n, "warmup", "3,n",
                     Forward(self.lib, n, "3,n", _rng(WARMUP_SEED, self.name, n)))
            for n in self.dims
        ]

    def round_ops(self, r: int) -> list[Op]:
        ops = []
        for n in self.dims:
            for shape in SHAPES:
                fwd = Forward(self.lib, n, shape, _rng(self.seed, self.name, r, n, shape))
                ops.append(self._op(n, f"r{r}-n{n}", shape, fwd))
        return ops


# -- hilbert-ranks -------------------------------------------------------------


def space_condition_count(n: int, d: int) -> int:
    """Monomials of adapted degree <= 1 in (y0, y1): the conditions a doubled
    codimension-two space imposes on degree-d forms."""
    return comb(d + n - 2, n - 2) + 2 * comb(d + n - 3, n - 2)


class HilbertRanks(Workload):
    """`postulation.hilbert_function` on the quartic shape (n = 3..5) and on
    the Alexander-Hirschowitz exceptions plus the control case."""

    name = "hilbert-ranks"
    speed_exponent = 0.5
    # quartic_shape_spec instances per round, by n
    quartic_counts = {3: 5, 4: 2, 5: 3}

    def _op(self, label, spec, deficit) -> Op:
        lib = self.lib
        n, d = spec.n, spec.degree
        conditions = len(spec.double_points) * (n + 1) + len(
            spec.double_spaces
        ) * space_condition_count(n, d)
        actual = min(comb(n + d, d), conditions) - deficit

        def check(report):
            return report.deficit == deficit and report.actual_hf == actual

        return Op(
            "hilbert", n, label, lambda: lib.postulation.hilbert_function(spec),
            check, lambda report: f"{report.actual_hf}/{report.deficit}",
            input_bits(spec.double_points, spec.double_spaces),
        )

    def _ah_ops(self, seed, tag) -> list[Op]:
        """The exception table of `postulation.ah_exceptions_suite`, drawn
        the same way (deduplicated `generate.random_point`s from one rng)."""
        lib = self.lib
        rng = _rng(seed, self.name, tag, "ah")
        cases = [(case, 1) for case in lib.postulation.AH_EXCEPTIONS]
        cases.append((lib.postulation.CONTROL_CASE, 0))
        ops = []
        for (n, p, d), deficit in cases:
            points = []
            while len(points) < p:
                candidate = lib.generate.random_point(n, rng)
                if candidate not in points:
                    points.append(candidate)
            spec = lib.postulation.SchemeSpec(n=n, degree=d, double_points=tuple(points))
            ops.append(self._op(f"{tag}:ah{n},{p},{d}", spec, deficit))
        return ops

    def _quartic_op(self, seed, tag, n) -> Op:
        spec = self.lib.postulation.quartic_shape_spec(n, f"{seed}-{self.name}-{tag}-{n}")
        return self._op(f"{tag}:quartic{n}", spec, 1)

    def warmup_ops(self) -> list[Op]:
        ah = {op.n: op for op in reversed(self._ah_ops(WARMUP_SEED, "warmup"))}
        quartic = {n: self._quartic_op(WARMUP_SEED, "warmup", n) for n in self.quartic_counts}
        return [ah.get(n) or quartic[n] for n in sorted(set(ah) | set(quartic))]

    def round_ops(self, r: int) -> list[Op]:
        # A round's 15 ops fall into cost groups: two tiny AH cases; the
        # n = 3 quartics with two AH cases; the n = 4 quartics with the last
        # AH case; the n = 5 quartics.  These counts put the median inside
        # the second group and the 90th percentile at the middle of the
        # n = 5 quartics, not on the edge of a group, where it would follow
        # one costly instance or jump between groups from run to run.
        quartics = [
            self._quartic_op(self.seed, f"r{r}.{k}", n)
            for n, count in self.quartic_counts.items() for k in range(count)
        ]
        return quartics + self._ah_ops(self.seed, f"r{r}")


WORKLOADS = {w.name: w for w in (CliSmall, ConstructLarge, HilbertRanks)}
