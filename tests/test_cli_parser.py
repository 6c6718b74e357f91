"""`cli.main` builds its argument parser once per process and shares it
across calls; these tests check that sharing it changes no output byte."""

import json

import pytest

import rncgeo.cli as cli
from rncgeo.generate import forward_datum, random_datum, rng_from_seed
from rncgeo.obstruct import nonexistence_certificate
from rncgeo.postulation import quartic_shape_spec
from rncgeo.serialize import datum_out, obstruction_out, scheme_spec_out


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def session(tmp_path):
    """argv lists covering every subcommand, both formats, a usage error
    between calls and a --forward run followed by a plain one."""
    datum, _ = forward_datum(3, 3, 3, rng_from_seed(77))
    steiner = write(tmp_path / "steiner.json", datum_out(datum))
    moved, _ = forward_datum(3, 6, 0, rng_from_seed(19))
    six = write(tmp_path / "six.json", datum_out(moved))
    special, _ = random_datum(3, 4, 2, rng_from_seed(11))
    four = write(tmp_path / "four.json", datum_out(special))
    obstruction = write(
        tmp_path / "obstruction.json",
        obstruction_out(nonexistence_certificate(special)),
    )
    spec = write(tmp_path / "spec.json", scheme_spec_out(quartic_shape_spec(3, seed=1)))
    return [
        ["construct", steiner],
        ["--format", "text", "construct", steiner],
        ["expect", "x", "3", "3"],  # usage error
        ["verify", obstruction],
        ["obstruct", four],
        ["--format", "text", "obstruct", four],
        ["expect", "3", "3", "3"],
        ["--format", "text", "expect", "3", "6", "0"],
        ["construct"],  # usage error: missing input
        ["hilbert", spec],
        ["hilbert", "--explain", spec],
        ["--format", "text", "hilbert", "--explain", spec],
        ["ah-suite", "--seed", "0"],
        ["equivalent", six, six],
        ["--format", "text", "equivalent", steiner, steiner],
        ["random-datum", "3", "5", "1", "--seed", "4", "--forward"],
        ["random-datum", "3", "5", "1", "--seed", "4"],
        ["random-datum", "3", "3", "3", "--oracle"],
        ["random-datum", "3", "3", "3"],
        ["--format", "text", "random-datum", "3", "6", "0", "--forward"],
        ["random-datum", "3", "6", "0"],
        ["no-such-command"],  # usage error
        ["expect", "3", "4", "2"],
    ]


def replay(capsys, calls):
    """(exit code, stdout, stderr) of each call to `cli.main`."""
    results = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_shared_parser_prints_what_fresh_parsers_print(tmp_path, capsys, monkeypatch):
    calls = session(tmp_path)
    cli.build_parser.cache_clear()
    shared = replay(capsys, calls)
    assert cli.build_parser.cache_info().misses == 1

    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = replay(capsys, calls)

    assert shared == fresh
    codes = [code for code, _, _ in shared]
    assert codes.count(("SystemExit", 2)) == 3
    assert {0, 10} <= set(codes)
    # no default leaks from the --forward call into the plain one after it
    forward, plain = (json.loads(shared[i][1]) for i in (15, 16))
    assert forward["forward"] is True and plain["forward"] is False
    assert json.loads(shared[18][1]).keys() == plain.keys()
    assert "oracle_curve" in json.loads(shared[17][1])


def test_ten_calls_build_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(10):
        assert cli.main(["expect", "3", "3", "3"]) == 0
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 9)


def test_usage_error_raises_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["expect", "x", "3", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: rncgeo" in captured.err
