import json

import pytest

from ffmzv.cli import enumerate_tuples, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_eulerian_exit_code(capsys):
    code, out, _ = run(capsys, "check", "--q", "3", "--tuple", "2,4")
    assert code == 10
    assert "Eulerian" in out


def test_check_non_eulerian_exit_code(capsys):
    code, out, _ = run(capsys, "check", "--q", "3", "--tuple", "4,2")
    assert code == 11
    assert "non-Eulerian" in out


def test_check_precheck_path(capsys):
    code, out, _ = run(capsys, "check", "--q", "3", "--tuple", "3,4")
    assert code == 11
    assert "precheck" in out


def test_check_json_format(capsys):
    code, out, _ = run(
        capsys, "check", "--q", "3", "--tuple", "2,4", "--format", "json"
    )
    assert code == 10
    d = json.loads(out)
    assert d["tuple"] == [2, 4]
    assert d["eulerian"] is True
    assert set(d) >= {"q", "modulus", "weight", "depth", "precheck",
                      "annihilator_degree", "elapsed_ms"}


@pytest.mark.parametrize("argv", [
    ("check", "--q", "6", "--tuple", "2,4"),
    ("check", "--q", "3", "--tuple", "2,x"),
    ("check", "--q", "3"),
    ("check", "--q", "3", "--char-p", "3", "--tuple", "2"),
    # --q names the field alone: a modulus or an extension degree given
    # with it was once silently dropped
    ("check", "--q", "9", "--modulus", "2,1,1", "--tuple", "2,6"),
    ("check", "--q", "9", "--ext-e", "2", "--tuple", "2,6"),
    ("sweep", "--q", "3"),
    ("families", "--q", "3"),
    ("sweep", "--q", "3", "--wmax", "6", "--rmax", "0"),
    ("sweep", "--q", "3", "--wmax", "6", "--rmax", "-1"),
    ("families", "--q", "3", "--wmax", "6", "--rmax", "0"),
    ("families", "--q", "3", "--wmax", "-1"),
    ("families", "--q", "3", "--wmax", "0"),
    ("zetalike", "--q", "3", "--tuple", "1,2", "--bound", "-3"),
    ("oracle", "identities", "--q", "3", "--prec", "-2"),
    ("oracle", "identities", "--q", "3", "--prec", "0"),
    ("oracle", "verify", "--q", "3", "--tuple", "4,2", "--prec", "-5"),
    ("oracle", "zeta", "--q", "3", "--tuple", "2,4", "--prec", "-3"),
    ("sweep", "--q", "3", "--wmax", "6", "--jobs", "0"),
    ("sweep", "--q", "3", "--wmax", "6", "--jobs", "-2"),
    # a prime field has the one modulus x: 5,1 at p=3 once ran as a
    # second field
    ("check", "--char-p", "3", "--modulus", "5,1", "--tuple", "2,4"),
    # q = 2^11 is above the table cap: the tables were once built, for
    # minutes
    ("check", "--char-p", "2", "--ext-e", "11", "--tuple", "1"),
])
def test_bad_config_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("check", "--tuple", "2,4"),
    ("zetalike", "--tuple", "1,2"),
    ("families", "--wmax", "6"),
])
def test_csv_format_is_sweep_only(capsys, argv):
    """Only `sweep` writes CSV; the other commands once accepted
    --format csv and printed text."""
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--q", "3", *argv[1:], "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    code, out, _ = run(
        capsys, "sweep", "--q", "3", "--wmax", "4", "--format", "csv"
    )
    assert code == 0 and out.startswith("tuple,weight,depth,eulerian")


def test_enumerate_order_and_filter():
    tuples = enumerate_tuples(3, 8, 2, False)
    # weight-major, then depth, then lexicographic; even entries only
    assert tuples[0] == (2,)
    assert all(all(x % 2 == 0 for x in s) for s in tuples)
    keys = [(sum(s), len(s), s) for s in tuples]
    assert keys == sorted(keys)
    assert (2, 4) in tuples and (4, 4) in tuples


def test_enumerate_q2_all_tuples():
    tuples = enumerate_tuples(2, 3, 3, False)
    assert set(tuples) == {
        (1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1),
    }


def test_enumerate_primitive_only():
    tuples = enumerate_tuples(2, 4, 2, True)
    assert (2, 2) not in tuples and (4,) not in tuples
    assert (1, 3) in tuples


def test_sweep_store_roundtrip(tmp_path, capsys):
    store = tmp_path / "run.ndjson"
    code, out, _ = run(
        capsys, "sweep", "--q", "3", "--wmax", "6", "--rmax", "2",
        "--out", str(store),
    )
    assert code == 0
    lines = store.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["manifest"]["q"] == 3
    records = [json.loads(x) for x in lines[1:]]
    assert header["manifest"]["count"] == len(records)
    found = {tuple(d["tuple"]): d["eulerian"] for d in records}
    assert found[(2, 4)] is True and found[(2, 2)] is False
    csv_text = (tmp_path / "run.ndjson.csv").read_text()
    assert csv_text.startswith("tuple,weight,depth,eulerian")


def test_sweep_deterministic_modulo_timing(tmp_path, capsys):
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    for path in (a, b):
        run(capsys, "sweep", "--q", "3", "--wmax", "6", "--out", str(path))

    def norm(p):
        out = []
        for line in p.read_text().splitlines():
            d = json.loads(line)
            d.pop("elapsed_ms", None)
            out.append(d)
        return out

    assert norm(a) == norm(b)


@pytest.mark.parametrize("jobs,workers", [(64, [6]), (6, [6]), (2, [2])])
def test_sweep_asks_no_more_workers_than_tuples(monkeypatch, jobs, workers):
    """`run_sweep` asks the pool for at most one worker per tuple, and
    runs one tuple serially: a `ProcessPoolExecutor` starts all its
    workers at once, so `--q 9 --wmax 32 --jobs 64` once forked 64
    processes for 14 tuples.  The fake pool records `max_workers` and
    maps serially, so the test starts no process."""
    from ffmzv import cli

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    F = cli.field_for_q(3)
    tuples = enumerate_tuples(3, 6, 2, False)
    records = cli.run_sweep(F, tuples, jobs=jobs)
    assert asked == workers

    def untimed(rs):
        return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rs]

    assert untimed(records) == untimed(cli.run_sweep(F, tuples, jobs=1))
    assert [r["tuple"] for r in records] == [list(s) for s in tuples]
    cli.run_sweep(F, tuples[:1], jobs=jobs)
    assert asked == workers


def test_sweep_empty_range(tmp_path, capsys):
    store = tmp_path / "empty.ndjson"
    code, _, _ = run(
        capsys, "sweep", "--q", "3", "--wmax", "1", "--out", str(store)
    )
    assert code == 0
    lines = store.read_text().splitlines()
    assert len(lines) == 1  # manifest only


def test_tmodule_output(capsys):
    code, out, _ = run(capsys, "tmodule", "--q", "3", "--tuple", "2,4")
    assert code == 0
    assert "dimension 10" in out
    assert "2τ" in out


def test_zetalike_delegation(capsys):
    code, out, _ = run(capsys, "zetalike", "--q", "2", "--tuple", "1,2")
    assert code == 0
    assert "reduced-to-eulerian" in out
    assert "Eulerian = True" in out


def test_oracle_identities(capsys):
    code, out, _ = run(capsys, "oracle", "identities", "--q", "3")
    assert code == 0
    assert "FAIL" not in out


def test_oracle_zeta(capsys):
    code, out, _ = run(
        capsys, "oracle", "zeta", "--q", "3", "--tuple", "2", "--prec", "6"
    )
    assert code == 0
    assert "O(θ^-7)" in out


def test_families_json(capsys):
    code, out, _ = run(
        capsys, "families", "--q", "3", "--wmax", "26", "--format", "json"
    )
    assert code == 0
    d = json.loads(out)
    assert d["conjectural"] is True
    assert [2, 4] in [f["s"] for f in d["tuples"]]


def test_at_poly_and_bc(capsys):
    code, out, _ = run(capsys, "at-poly", "--q", "3", "--n", "3")
    assert code == 0 and "θ^3" in out
    code, out, _ = run(capsys, "bc", "--q", "3", "--n", "2")
    assert code == 0 and out.strip() == "(2)/(θ^3 + 2*θ)"
