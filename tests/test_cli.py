import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from bipcayley.autos import index2_subgroups
from bipcayley.cli import main, parse_set_spec, parse_subgroup_spec
from bipcayley.groups import build_group


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    return code, json.loads(text) if text else None


def test_spec_example_index():
    code, payload = run_json(["index", "--group", "C6", "--subgroup",
                              "index:0", "--set", "1", "--mode", "directed",
                              "--no-timing"])
    assert code == 0
    assert payload["result"]["cayley_index"] == 1
    assert payload["result"]["is_drr"] is True


def test_spec_example_classify():
    code, payload = run_json(["classify", "--group", "C6", "--subgroup",
                              "index:0", "--set", "1,3,5",
                              "--mode", "undirected"])
    assert code == 0
    assert payload["result"]["verdict"] == "A3"
    assert "H_generators" in payload["result"]["witness"]


def test_spec_example_table():
    code, text = run_cli(["table", "--which", "1", "--budget", "600",
                          "--format", "csv", "--threads", "1"])
    assert code == 0
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    assert header[:4] == ["table", "group", "subgroup", "expected"]
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    small = [r for r in rows if r["status"] == "ok"]
    assert small and all(r["matches"] == "True" for r in small)
    assert any(r["status"] == "skipped" for r in rows)


def test_group_info():
    code, payload = run_json(["group-info", "--group", "C4xC2^3"])
    assert code == 0
    res = payload["result"]
    assert res["size"] == 32 and res["exponent"] == 4
    assert res["invariant_factors"] == [2, 2, 2, 4]


def test_subgroups_listing():
    code, payload = run_json(["subgroups", "--group", "C4xC2"])
    assert code == 0
    rows = payload["result"]
    assert len(rows) == 3
    assert sorted(tuple(r["invariant_factors"]) for r in rows) == \
        [(2, 2), (4,), (4,)]


def test_auts_command():
    code, payload = run_json(["auts", "--group", "C2^3"])
    assert code == 0
    assert payload["result"]["count"] == 168
    code, payload = run_json(["auts", "--group", "C4xC2",
                              "--stabilizing", "index:0"])
    assert code == 0
    assert payload["result"]["count"] == 8


def test_bounds_command_csv():
    code, text = run_cli(["bounds", "--group", "C6", "--subgroup", "index:0",
                          "--format", "csv"])
    assert code == 0
    assert "A1-directed" in text and "triples" in text
    assert "False" not in text.split("holds")[-1].split("\n")[0]


def test_bounds_thresholds():
    code, payload = run_json(["bounds", "--thresholds"])
    assert code == 0
    rows = {r["name"]: r for r in payload["result"]}
    assert rows["threshold-directed"]["exact"] == 744
    assert rows["threshold-undirected"]["log2_bound"] == 8214


def test_survey_command():
    code, payload = run_json(["survey", "--group", "C4xC2", "--subgroup",
                              "index:0", "--mode", "directed", "--threads", "1"])
    assert code == 0
    assert payload["result"]["min_index"] == 2
    assert payload["result"]["sets_examined"] == 16


def test_survey_all_subgroups():
    code, payload = run_json(["survey", "--group", "C6", "--mode", "directed",
                              "--all-subgroups", "--threads", "1"])
    assert code == 0
    assert payload["result"]["global_index"] == 1


def test_survey_all_subgroups_random():
    argv = ["survey", "--group", "C4xC2", "--all-subgroups", "--method",
            "random", "--samples", "10", "--seed", "3", "--no-timing"]
    code, text = run_cli(argv)
    assert code == 0
    rows = json.loads(text)["result"]["per_subgroup"]
    assert len(rows) == len(index2_subgroups(build_group([4, 2])))
    assert run_cli(argv) == (0, text)


def test_random_survey_threads_keep_the_result():
    argv = ["survey", "--group", "C2xC6", "--subgroup", "index:0", "--method",
            "random", "--samples", "300", "--seed", "3", "--no-timing"]
    results = [run_json(argv + ["--threads", threads])[1]["result"]
               for threads in ("1", "2")]
    assert results[0] == results[1]


def test_survey_timeout_is_a_per_set_search_budget(capsys):
    # 76 representatives: with two threads the sweep runs on workers
    base = ["survey", "--group", "C4xC2^3", "--subgroup", "index:0",
            "--no-timing"]
    plain = run_json(base + ["--threads", "1"])[1]["result"]
    for threads in ("1", "2"):
        argv = base + ["--threads", threads]
        code, payload = run_json(argv + ["--timeout", "60"])
        assert code == 0
        assert payload["config"]["timeout"] == 60.0
        assert payload["result"] == plain
        assert run_cli(argv + ["--timeout", "1e-9"]) == (3, "")
        assert "time budget" in capsys.readouterr().err


def test_sample_command():
    code, payload = run_json(["sample", "--group", "C6", "--subgroup",
                              "index:0", "--mode", "directed",
                              "--samples", "50", "--seed", "4"])
    assert code == 0
    res = payload["result"]
    assert res["samples"] == 50 and 0 <= res["estimate"] <= 1


def test_unlabeled_command():
    code, payload = run_json(["unlabeled", "--group", "C2^2", "--subgroup",
                              "index:0", "--mode", "directed"])
    assert code == 0
    assert payload["result"]["total_classes"] == 3


def test_c26_command():
    code, payload = run_json(["c26"])
    assert code == 0
    assert payload["result"]["candidate_count"] == 7701512
    assert payload["result"]["subclaims_ok"] is True


def test_index_output_is_pinned():
    """``index --no-timing`` answers, generators included, for a connected
    aperiodic set, a periodic set (the C4xC2^2 set of
    ``test_closed_form_needs_the_full_period``), a disconnected set and the
    empty set."""
    periodic = ";".join(f"{a},{b},{c}" for a in range(4) for b in range(2)
                        for c in range(2) if (a % 2, c) != (0, 0))
    for group, conn, index, generators in (
            ("C4xC2", "0,1;1,0;3,0", 6, ["(2 6)(3 7)", "(1 2)(4 7)"]),
            ("C4xC2^2", periodic, 497664,
             ["(4 5)(6 7)(12 13)(14 15)", "(1 4)(3 6)(9 12)(11 14)",
              "(2 8)", "(2 8 10)", "(1 3)", "(1 3 9 11)", "(4 6)",
              "(4 6 12 14)", "(5 7)", "(5 7 13 15)"]),
            ("C2^3", "1,0,0", 48, ["(1 5)", "(1 2)(5 6)", "(1 2 3)(5 6 7)"]),
            ("C4xC2", "", 5040, ["(1 2)", "(1 2 3 4 5 6 7)"])):
        code, payload = run_json(["index", "--group", group, "--set", conn,
                                  "--no-timing"])
        assert code == 0
        res = payload["result"]
        assert (res["cayley_index"], res["generators"], res["elapsed_ms"]) \
            == (index, generators, 0.0), group


def test_classify_output_is_pinned():
    """``classify --cross-check --no-timing`` results, one set per verdict:
    A1, A2, A3 and GOOD directed; A3, A4 and GOOD undirected."""
    for group, conn, mode, verdict, witness, index, elements in (
            ("C2^2", "empty", "directed", "A1",
             {"subgroup_generators": []}, 6, []),
            ("C2^2", "1,0;1,1", "directed", "A2",
             {"automorphism_generator_images": [[1, 1], [0, 1]]}, 2,
             [[1, 0], [1, 1]]),
            ("C2xC6", "1,0;1,1;1,4", "directed", "A3",
             {"H_generators": [[0, 3]], "K_generators": [[0, 3], [1, 0]]},
             4, [[1, 0], [1, 1], [1, 4]]),
            ("C4", "1", "directed", "GOOD", None, 1, [[1]]),
            ("C6", "1;3;5", "undirected", "A3",
             {"H_generators": [[2]], "K_generators": [[2]]}, 12,
             [[1], [3], [5]]),
            ("C2xC4", "1,0;1,1;1,3", "undirected", "A4",
             {"C_generators": [[0, 1]], "Z_generators": [[1, 2]],
              "S_prime": [[0, 1], [0, 2], [0, 3]], "S_dprime": [[1, 2]]},
             6, [[1, 0], [1, 1], [1, 3]]),
            ("C4", "1;3", "undirected", "GOOD", None, 2, [[1], [3]])):
        code, payload = run_json(["classify", "--group", group, "--subgroup",
                                  "index:0", "--set", conn, "--mode", mode,
                                  "--cross-check", "--no-timing"])
        assert code == 0
        want = {"verdict": verdict, "witness": witness,
                "witness_verified": True,
                "cross_check": {"cayley_index": index, "consistent": True},
                "set": elements}
        res = payload["result"]
        assert (res, list(res)) == (want, list(want)), (group, conn, mode)


def test_survey_and_table_outputs_are_pinned():
    """SHA-256 of the ``--no-timing`` output of both tables, serial and on
    two workers, and of two surveys, whose argmin sets they fix.  Table 1
    runs at the benchmark's budget with the extended rows, so the C2^5 and
    C4xC2^3 rows are searched."""
    import hashlib
    table1 = ["table", "--which", "1", "--budget", "131072",
              "--include-extended", "--threads"]
    table2 = ["table", "--which", "2", "--threads"]
    survey = ["survey", "--threads", "1", "--group"]
    for argv, digest in (
            (table1 + ["1"], "1caf46c14b8c8a1810da0bdf182a887f"
                             "460fa5a5d2c975dfd6370bae2758d58e"),
            (table1 + ["2"], "99be86f2e6a5060f472ab8eefd020653"
                             "bf0dfb799c7cd3e4fd5ec8d41825d7bc"),
            (table2 + ["1"], "1856f6a887afec1cf16e32d2df8ba0c2"
                             "52c6b10891e3f3b6ca1609a7c7ff4ca9"),
            (table2 + ["2"], "6da95fd31ba64d11c78904e2adf77fee"
                             "4e13833f8c477d5f8878fdbc84e8dd41"),
            (survey + ["C4xC2^3", "--subgroup", "index:0", "--mode",
                       "directed"], "fa11612bde2cbaeaba4a5febef9942c4"
                                    "3be8d0e4efbca09d5a76618c353b7de9"),
            (survey + ["C2xC4^2", "--subgroup", "index:1", "--mode",
                       "undirected"], "719dc38275b58e2b109231abc1534e8f"
                                      "8a7084e26d879ae655e1775312cc9817")):
        code, text = run_cli(argv + ["--no-timing"])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv


def test_c26_outputs_are_pinned():
    """SHA-256 of ``c26 --budget 5000 --no-timing``, serial and on two
    workers; 335 representatives, so the second runs the process pool.
    The digests are those of the search seeded with inversion alone."""
    import hashlib
    for threads, digest in (
            ("1", "f422ad91f368c81025d0ae9a0dbe295e"
                  "9ee17d23679240c53d7045b9c82f3573"),
            ("2", "80adf961268b431a019eaa60c0ef927d"
                  "eb267b83e81d8c00d3810eef4a441ba1")):
        code, text = run_cli(["c26", "--budget", "5000", "--threads", threads,
                              "--no-timing"])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest, threads


def test_byte_identical_repeat():
    argv = ["index", "--group", "C6", "--subgroup", "index:0",
            "--set", "1,3,5", "--mode", "undirected", "--no-timing"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second
    argv = ["sample", "--group", "C6", "--subgroup", "index:0",
            "--samples", "30", "--seed", "11"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def test_usage_errors(capsys):
    code, _ = run_cli(["group-info", "--group", "C4yC2"])
    assert code == 2
    code, _ = run_cli(["index", "--group", "C6", "--subgroup", "index:5",
                       "--set", "1"])
    assert code == 2
    code, _ = run_cli(["nonsense"])
    assert code == 2
    code, _ = run_cli(["classify", "--group", "C6", "--subgroup", "index:0",
                       "--set", "2", "--mode", "directed"])
    assert code == 2  # set meets B
    code, _ = run_cli(["survey", "--group", "C6", "--subgroup", "index:0",
                       "--method", "random", "--samples", "0"])
    assert code == 2
    for samples in ("0", "-2"):
        code, _ = run_cli(["sample", "--group", "C6", "--subgroup", "index:0",
                           "--samples", samples])
        assert code == 2
    for element in ("7", "6", "1;6", "-1", "x"):  # none is reduced mod 6
        code, _ = run_cli(["index", "--group", "C6", "--subgroup", "index:0",
                           "--set", element])
        assert code == 2
    code, _ = run_cli(["index", "--group", "C2xC4", "--subgroup", "index:0",
                       "--set", "1,4"])
    assert code == 2
    for budget in ("-5", "inf"):
        code, _ = run_cli(["c26", "--budget", budget])
        assert code == 2
    code, _ = run_cli(["index", "--group", "C6", "--subgroup", "index:x",
                       "--set", "1"])
    assert code == 2
    code, _ = run_cli(["survey", "--group", "C6", "--subgroup", "index:x"])
    assert code == 2
    for extra in ([], ["--list"]):
        code, text = run_cli(["auts", "--group", "C6", "--limit", "-3"]
                             + extra)
        assert (code, text) == (2, "")
    capsys.readouterr()
    for argv in (["survey", "--group", "C6"],  # no --subgroup
                 ["classify", "--group", "C6", "--set", "1"],
                 ["sample", "--group", "C6"],
                 ["unlabeled", "--group", "C6"],
                 ["index", "--group", "C6", "--set", "1", "--timeout", "nan"],
                 ["index", "--group", "C6", "--set", "1", "--timeout", "inf"],
                 ["index", "--group", "C6", "--set", "1", "--timeout", "0"],
                 ["survey", "--group", "C6", "--subgroup", "index:0",
                  "--timeout", "-1"],
                 ["survey", "--group", "C6", "--subgroup", "index:0",
                  "--threads", "0"],
                 ["table", "--which", "1", "--threads", "-2"],
                 ["c26", "--threads", "0"],
                 # a repetition is bounded before its factors are listed
                 # (these two ran out of memory or overflowed a list size)
                 ["group-info", "--group", "C2^4000000000"],
                 ["group-info", "--group", "C2^99999999999999999999"],
                 ["group-info", "--group", "C2^40xC2^40"]):  # > 64 factors
        assert run_cli(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err, argv


def test_survey_all_subgroups_refuses_subgroup(capsys):
    assert run_cli(["survey", "--group", "C2xC4", "--all-subgroups",
                    "--subgroup", "index:7", "--threads", "1"]) == (2, "")
    assert "--subgroup" in capsys.readouterr().err


def test_bounds_thresholds_refuses_subgroup(capsys):
    assert run_cli(["bounds", "--thresholds", "--subgroup",
                    "index:9"]) == (2, "")
    assert "--subgroup" in capsys.readouterr().err


def test_bounds_takes_either_group_or_thresholds(monkeypatch, capsys):
    """The threshold scan reads no group, so it builds and echoes none,
    whatever the size cap."""
    monkeypatch.setenv("BIPCAYLEY_SIZE_CAP", "4")
    code, payload = run_json(["bounds", "--thresholds"])
    assert code == 0 and "group" not in payload["config"]
    assert [row["exact"] for row in payload["result"]] == [744, 8214]
    for argv, option in (
            (["--group", "C6", "--thresholds"], "--thresholds"),
            (["--group", "C2^30", "--thresholds"], "--thresholds"),
            ([], "--group")):
        assert run_cli(["bounds"] + argv) == (2, ""), argv
        assert option in capsys.readouterr().err


def test_c26_checkpoint_needs_a_search(tmp_path, capsys):
    path = tmp_path / "x"
    for extra in ([], ["--budget", "0"]):
        assert run_cli(["c26", "--checkpoint", str(path)] + extra) == (2, "")
        assert "--checkpoint" in capsys.readouterr().err
    assert not path.exists()


def test_exit_codes_follow_two_base_classes():
    from bipcayley import errors

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    bases = (errors.UsageError, errors.LimitExceeded)
    for cls in subclasses(errors.BipCayleyError):
        if cls not in bases + (errors.FalsificationError,):
            assert sum(issubclass(cls, base) for base in bases) == 1, cls


def test_cap_exit_code(monkeypatch):
    monkeypatch.setenv("BIPCAYLEY_SIZE_CAP", "16")
    code, _ = run_cli(["group-info", "--group", "C2^5"])
    assert code == 3


def test_size_cap_message_names_its_variable(monkeypatch, capsys):
    monkeypatch.setenv("BIPCAYLEY_SIZE_CAP", "4")
    code, text = run_cli(["group-info", "--group", "C4xC2"])
    assert (code, text) == (3, "")
    assert "|A|=8 exceeds BIPCAYLEY_SIZE_CAP=4" in capsys.readouterr().err


def test_cap_variables_must_be_positive_integers(monkeypatch, capsys):
    for raw in ("x", "0", "-3", "1.5"):
        monkeypatch.setenv("BIPCAYLEY_SEARCH_CAP", raw)
        code, _ = run_cli(["group-info", "--group", "C6"])
        assert code == 2
        assert "BIPCAYLEY_SEARCH_CAP" in capsys.readouterr().err
    monkeypatch.setenv("BIPCAYLEY_SEARCH_CAP", "16")
    code, payload = run_json(["group-info", "--group", "C6"])
    assert code == 0 and payload["config"]["search_cap"] == 16


def test_config_echoes_the_two_caps():
    code, payload = run_json(["group-info", "--group", "C6"])
    assert code == 0
    assert {"size_cap", "search_cap"} <= set(payload["config"])
    assert not {"aut_cap", "canon_cap"} & set(payload["config"])


def test_aut_cap_refuses_automorphism_work(monkeypatch, capsys):
    """auts, classify and bounds walk Aut(A) and exit 3 over the search
    cap; the threshold scan walks no group and runs."""
    monkeypatch.setenv("BIPCAYLEY_SEARCH_CAP", "4")
    for argv in (["auts", "--group", "C4xC2"],
                 ["classify", "--group", "C4xC2", "--subgroup", "index:0",
                  "--set", "1,0"],
                 ["bounds", "--group", "C4xC2"],
                 ["bounds", "--group", "C4xC2", "--subgroup", "index:0"]):
        assert run_cli(argv) == (3, ""), argv
        assert "BIPCAYLEY_SEARCH_CAP=4" in capsys.readouterr().err
    code, _ = run_cli(["bounds", "--thresholds"])
    assert code == 0


def test_search_cap_comes_before_option_parsing(monkeypatch, capsys):
    """Like the size cap, the search cap is checked before any other
    option is read; the commands that run no backtrack ignore it."""
    monkeypatch.setenv("BIPCAYLEY_SEARCH_CAP", "4")
    assert run_cli(["index", "--group", "C4xC2", "--subgroup", "index:9",
                    "--set", "1,0"]) == (3, "")
    assert "|A|=8 exceeds BIPCAYLEY_SEARCH_CAP=4" in capsys.readouterr().err
    for argv in (["group-info", "--group", "C4xC2"],
                 ["subgroups", "--group", "C4xC2"]):
        assert run_cli(argv)[0] == 0, argv


def test_canon_cap_refuses_unlabeled(capsys):
    assert run_cli(["unlabeled", "--group", "C2^9", "--subgroup",
                    "index:0"]) == (3, "")
    assert "admissible sets exceed the budget" in capsys.readouterr().err


def test_raised_search_cap_reaches_every_search(monkeypatch):
    """The argmin re-check runs under the raised cap too."""
    monkeypatch.setenv("BIPCAYLEY_SEARCH_CAP", "10000")
    code, payload = run_json(["survey", "--group", "C2xC4098", "--subgroup",
                              "index:0", "--method", "random", "--samples",
                              "2", "--threads", "1"])
    assert code == 0
    assert payload["config"]["search_cap"] == 10000
    assert payload["result"]["min_index"] >= 1


def test_budget_past_the_orbit_work_space_exits_3(capsys):
    """2^64 admissible sets pass a budget of 1e30 but not the one byte per
    set of the orbit work space."""
    assert run_cli(["survey", "--group", "C2^7", "--subgroup", "index:0",
                    "--budget", "1e30", "--threads", "1"]) == (3, "")
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_unlabeled_past_the_exhaustive_budget_exits_3(monkeypatch, capsys):
    """C2^6 passes both caps (|A| = 64) but has 2^32 directed sets, past the
    exhaustive budget of 2^24: refused before any search."""
    from bipcayley import survey

    def no_search(*args, **kwargs):
        raise AssertionError("searched past the budget")

    monkeypatch.setattr(survey, "canonical_form", no_search)
    monkeypatch.setattr(survey, "vertex_stabilizer", no_search)
    assert run_cli(["unlabeled", "--group", "C2^6", "--subgroup", "index:0",
                    "--mode", "directed"]) == (3, "")
    err = capsys.readouterr().err
    assert "4294967296 admissible sets exceed the budget" in err


def test_progress_is_an_option_of_the_threaded_commands(capsys):
    """``table`` streams each row's progress (the C4xC2^3 row has 76
    representatives, 65,536 sets); the commands without
    ``--threads`` have no ``--progress`` either."""
    code, _ = run_cli(["table", "--which", "1", "--budget", "65536",
                       "--threads", "1", "--progress", "--no-timing"])
    assert code == 0
    assert "progress: 64/76" in capsys.readouterr().err.splitlines()
    for argv in (["group-info", "--group", "C6"],
                 ["subgroups", "--group", "C6"],
                 ["auts", "--group", "C6"],
                 ["index", "--group", "C6", "--subgroup", "index:0",
                  "--set", "1"],
                 ["classify", "--group", "C6", "--subgroup", "index:0",
                  "--set", "1"],
                 ["bounds", "--group", "C6", "--subgroup", "index:0"],
                 ["sample", "--group", "C6", "--subgroup", "index:0"],
                 ["unlabeled", "--group", "C6", "--subgroup", "index:0"]):
        assert run_cli(argv + ["--progress"]) == (2, ""), argv


def test_text_format():
    code, text = run_cli(["group-info", "--group", "C6", "--format", "text"])
    assert code == 0
    assert "size: 6" in text and "command: group-info" in text


def test_corpus_invocations():
    """Documented invocations mirroring the library-level examples."""
    code, payload = run_json(["index", "--group", "C2^2", "--subgroup",
                              "index:0", "--set", "0,1", "--no-timing"])
    assert code == 0 and payload["result"]["cayley_index"] == 2

    code, payload = run_json(["classify", "--group", "C6", "--subgroup",
                              "index:0", "--set", "1", "--mode", "directed",
                              "--cross-check"])
    assert code == 0
    assert payload["result"]["verdict"] == "GOOD"
    assert payload["result"]["cross_check"]["consistent"] is True

    code, payload = run_json(["survey", "--group", "C2xC4", "--subgroup",
                              "index:0", "--mode", "undirected",
                              "--threads", "1"])
    assert code == 0 and payload["result"]["min_index"] == 6

    code, payload = run_json(["group-info", "--group", "C3xC6"])
    assert code == 0
    assert payload["result"]["size"] == 18
    assert payload["result"]["exponent"] == 6

    code, payload = run_json(["subgroups", "--group", "C6",
                              "--kind", "prime-order"])
    assert code == 0
    assert sorted(r["order"] for r in payload["result"]) == [2, 3]

    code, text = run_cli(["bounds", "--group", "C4xC2", "--subgroup",
                          "index:0", "--format", "csv"])
    assert code == 0 and "inverse-closed-formula" in text


def test_readme_command_examples_run():
    """Every ``bipcayley ...`` line of README's "Command line" block exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [l for l in block.splitlines() if l.startswith("bipcayley ")]
    assert len(lines) == 12
    for line in lines:
        assert run_cli(shlex.split(line)[1:])[0] == 0, line


def test_parse_specs():
    g = build_group([4, 2])
    sub = parse_subgroup_spec(g, "2,0;0,1")
    assert sub.order == 4
    sub2 = parse_subgroup_spec(g, "index:0")
    assert sub2.invariant_factors() == (2, 2)
    bits = parse_set_spec(g, sub2, "1,0;3,1")
    assert bits == (1 << g.encode((1, 0))) | (1 << g.encode((3, 1)))
    assert parse_set_spec(g, sub2, "all-minus-B") == sub2.complement_bits()
    g6 = build_group([6])
    assert parse_set_spec(g6, None, "1,3,5") == 0b101010


def test_auts_count_from_generators():
    code, payload = run_json(["auts", "--group", "C2^5"])
    assert code == 0
    assert payload["result"]["count"] == 9_999_360
    assert "total_aut_order" not in payload["result"]


def test_auts_count_equals_stream_length(small_groups):
    from bipcayley.autos import enumerate_automorphisms
    from bipcayley.groups import format_group_spec
    for g in small_groups:
        spec = format_group_spec(g.orders)
        for extra, fixing in (([], ()), (["--stabilizing", "index:0"], None)):
            if fixing is None:
                if g.size % 2:
                    continue
                fixing = (index2_subgroups(g)[0].bits,)
            code, payload = run_json(["auts", "--group", spec] + extra)
            assert code == 0
            stream = sum(1 for _ in enumerate_automorphisms(g, fixing=fixing))
            assert payload["result"]["count"] == stream, (spec, extra)


def test_auts_list_and_limit():
    from bipcayley.autos import enumerate_automorphisms
    g = build_group([4, 2, 2])
    sub = index2_subgroups(g)[0]
    want = [[list(g.decode(alpha(x))) for x in g.generators()]
            for alpha in enumerate_automorphisms(g, fixing=(sub.bits,))]
    assert len(want) > 5
    code, payload = run_json(["auts", "--group", "C4xC2^2", "--stabilizing",
                              "index:0", "--list", "--limit", "5"])
    assert code == 0
    res = payload["result"]
    assert res["count"] == len(want) == 192  # the order: --limit lists only
    assert res["generator_images"] == want[:5]
    code, payload = run_json(["auts", "--group", "C4xC2^2", "--stabilizing",
                              "index:0", "--list"])
    res = payload["result"]
    assert res["count"] == len(want)
    assert res["generator_images"] == want[:50]
    code, payload = run_json(["auts", "--group", "C2^3", "--limit", "5"])
    res = payload["result"]
    assert res["count"] == 168
    assert "generator_images" not in res


def test_search_cap_refuses_surveys(monkeypatch):
    argv = ["survey", "--group", "C4xC2^3", "--subgroup", "index:0",
            "--threads", "1"]
    code, _ = run_cli(argv)
    assert code == 0
    monkeypatch.setenv("BIPCAYLEY_SEARCH_CAP", "8")
    code, _ = run_cli(argv)
    assert code == 3
    for argv in (["index", "--group", "C4xC2^2", "--subgroup", "index:0",
                  "--set", "1,0,0"],
                 ["sample", "--group", "C4xC2^2", "--subgroup", "index:0",
                  "--samples", "5"],
                 ["survey", "--group", "C4xC2^2", "--subgroup", "index:0",
                  "--method", "random", "--samples", "5"],
                 ["table", "--which", "1", "--budget", "600",
                  "--threads", "1"],
                 ["c26", "--budget", "5"],
                 ["unlabeled", "--group", "C2^4", "--subgroup", "index:0"],
                 ["classify", "--group", "C4xC2^2", "--subgroup", "index:0",
                  "--set", "1,0,0", "--cross-check"]):
        code, _ = run_cli(argv)
        assert code == 3, argv
    code, _ = run_cli(["c26"])  # the sub-claims search nothing
    assert code == 0
    code, _ = run_cli(["classify", "--group", "C4xC2^2", "--subgroup",
                       "index:0", "--set", "1,0,0"])  # walks Aut(A)
    assert code == 3


def test_unusable_checkpoint_exits_2_before_any_search(tmp_path, monkeypatch,
                                                       capsys):
    import bipcayley.survey

    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking the checkpoint")

    monkeypatch.setattr(bipcayley.survey, "sweep", no_search)
    (tmp_path / "text").write_text('{"cursor": 0, "best_index": null}\n'
                                   "not json\n")
    (tmp_path / "keyless").write_text('{"cursor": 50000}\n')
    (tmp_path / "past").write_text(
        '{"cursor": 999999999, "best_index": 1, "best_mask": 3}\n')
    (tmp_path / "maskless").write_text(
        '{"cursor": 0, "best_index": 16, "best_mask": null}\n')
    (tmp_path / "indexless").write_text(
        '{"cursor": 0, "best_index": null, "best_mask": 3}\n')
    (tmp_path / "negative").write_text(
        '{"cursor": 0, "best_index": 1, "best_mask": -5}\n')
    (tmp_path / "wide").write_text(
        '{"cursor": 0, "best_index": 1, "best_mask": %d}\n' % (1 << 70))
    for path in (tmp_path / "missing" / "ck", tmp_path, tmp_path / "text",
                 tmp_path / "keyless", tmp_path / "past",
                 tmp_path / "maskless", tmp_path / "indexless",
                 tmp_path / "negative", tmp_path / "wide"):
        code, text = run_cli(["c26", "--budget", "5", "--checkpoint",
                              str(path)])
        assert (code, text) == (2, ""), path
        assert str(path) in capsys.readouterr().err


def test_c26_rechecks_a_resumed_best_set(tmp_path, capsys):
    """A checkpoint claims index 1 for {0, e6}, a set holding the identity,
    which lies in B.  No candidate goes below 1, so the claim survives the
    sweep; the full search on the set disagrees, a falsification."""
    path = tmp_path / "ck"
    path.write_text('{"cursor": 0, "best_index": 1, "best_mask": 3}\n')
    code, text = run_cli(["c26", "--budget", "100", "--checkpoint",
                          str(path), "--threads", "1"])
    assert (code, text) == (4, "")
    assert "re-check" in capsys.readouterr().err


def test_unwritable_export_graph_exits_2_before_any_search(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    import bipcayley.cli

    argv = ["index", "--group", "C6", "--subgroup", "index:0", "--set", "1",
            "--no-timing", "--export-graph"]
    good = tmp_path / "arcs.txt"
    assert run_cli(argv + [str(good)])[0] == 0
    assert good.read_text().splitlines()[:2] == ["p digraph 6 6", "a 0 5"]

    def no_search(*args, **kwargs):
        raise AssertionError("searched before opening the export file")

    monkeypatch.setattr(bipcayley.cli, "vertex_stabilizer", no_search)
    for path in (tmp_path / "missing" / "arcs.txt", tmp_path):
        code, text = run_cli(argv + [str(path)])
        assert (code, text) == (2, ""), path
        assert str(path) in capsys.readouterr().err


def test_export_graph_builds_the_digraph_once(tmp_path, monkeypatch):
    import bipcayley.cayley

    built = []
    init = bipcayley.cayley.CayleyDigraph.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(bipcayley.cayley.CayleyDigraph, "__init__",
                        counting_init)
    code, _ = run_cli(["index", "--group", "C6", "--set", "1",
                       "--export-graph", str(tmp_path / "arcs.txt")])
    assert code == 0 and len(built) == 1


def test_search_cap_exits_3_before_writing_the_export(tmp_path, monkeypatch):
    monkeypatch.setenv("BIPCAYLEY_SEARCH_CAP", "4")
    path = tmp_path / "g.txt"
    code, text = run_cli(["index", "--group", "C4xC2", "--subgroup",
                          "index:0", "--set", "1,0", "--export-graph",
                          str(path)])
    assert (code, text) == (3, "")
    assert not path.exists()


def test_survey_echoes_only_the_options_of_its_method():
    base = ["survey", "--group", "C2xC6", "--subgroup", "index:0",
            "--threads", "1", "--no-timing"]
    code, payload = run_json(base + ["--method", "random", "--samples", "20"])
    assert code == 0
    config = payload["config"]
    assert config["seed"] == 0 and config["samples"] == 20
    assert "budget" not in config
    code, payload = run_json(base + ["--method", "exhaustive"])
    assert code == 0
    config = payload["config"]
    assert config["budget"] == 1 << 24
    assert "seed" not in config and "samples" not in config


def test_config_echoes_the_options_that_change_the_result(tmp_path):
    """Each flag or limit that changes a command's result is echoed in its
    config when set, and left out when it is not."""
    checkpoint = str(tmp_path / "ck")
    for argv, echoed in (
            (["auts", "--group", "C6", "--stabilizing", "index:0",
              "--limit", "1"], {"stabilizing": "index:0", "limit": 1}),
            (["table", "--which", "1", "--budget", "0", "--threads", "1",
              "--include-extended"], {"include_extended": True}),
            (["survey", "--group", "C6", "--all-subgroups", "--threads",
              "1"], {"all_subgroups": True}),
            (["bounds", "--thresholds"], {"thresholds": True}),
            (["classify", "--group", "C6", "--subgroup", "index:0", "--set",
              "1,3,5", "--cross-check"], {"cross_check": True}),
            (["c26", "--full", "--budget", "5", "--threads", "1",
              "--checkpoint", checkpoint],
             {"full": True, "checkpoint": checkpoint})):
        code, payload = run_json(argv + ["--no-timing"])
        assert code == 0, argv
        config = payload["config"]
        assert {k: config.get(k) for k in echoed} == echoed, argv
    code, payload = run_json(["auts", "--group", "C6"])
    assert code == 0
    assert not {"stabilizing", "limit"} & set(payload["config"])


def test_module_entry_point_runs_the_cli():
    """``python -m bipcayley`` prints what ``cli.main`` prints and exits
    with its code, 2 on a usage error."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["group-info", "--group", "C6"]
    proc = subprocess.run([sys.executable, "-m", "bipcayley", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == run_cli(argv)[1]
    bad = subprocess.run([sys.executable, "-m", "bipcayley", "group-info",
                          "--no-such-option"], capture_output=True, env=env,
                         timeout=120)
    assert bad.returncode == 2


def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr():
    # 276,794 bytes of output: more than a pipe holds, so the write fails
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bipcayley.cli", "subgroups", "--group",
         "C2^8", "--kind", "prime-index"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
