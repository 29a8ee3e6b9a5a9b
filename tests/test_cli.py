import hashlib
import json

import numpy as np
import pytest

from uip.cli import intro_example_values, main
from uip.model import instance_from_json, instance_to_json, generate_synthetic


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def freight_instance_json() -> str:
    """Six demo-geometry loads, bundled up to three at a time into at most
    two bundles."""
    from uip.freight import demo_coeffs, demo_regions, freight_instance
    from uip.model import FreightItemData, Item

    ends = [((0.0, 0.0), (180.0, 240.0)), ((60.0, 65.0), (190.0, -10.0)),
            ((175.0, 250.0), (5.0, 5.0)), ((185.0, -20.0), (50.0, 75.0)),
            ((10.0, -5.0), (60.0, 70.0)), ((170.0, 235.0), (195.0, -20.0))]
    loads = []
    for i, (pickup, dropoff) in enumerate(ends):
        f = FreightItemData(pickup, dropoff, 30)
        loads.append(Item(i, salvage=3.0 * f.loaded_miles, freight=f))
    coeffs, regions = demo_coeffs(), demo_regions()
    inst = freight_instance(loads, coeffs, regions, demand=6.0, arrival_prob=0.3,
                            max_bundles=2, max_bundle_size=3)
    return instance_to_json(
        inst, {"freight": {"coeffs": coeffs.to_dict(), "regions": regions.to_dict()}})


class TestDeterminism:
    def test_bounds_table_byte_identical(self, tmp_path):
        a = run(tmp_path, "bounds-table", "--L", "2", "--lambda", "3",
                "--seeds", "2", "--seed", "5")
        b = run(tmp_path, "bounds-table", "--L", "2", "--lambda", "3",
                "--seeds", "2", "--seed", "5")
        assert a == b
        assert a[0] == 0

    def test_figure1_byte_identical_with_threads(self, tmp_path):
        # the sweeps run sequentially; two runs must still agree byte for byte
        a = run(tmp_path, "figure1", "--lambda-grid", "0.5:10:6:log")
        b = run(tmp_path, "figure1", "--lambda-grid", "0.5:10:6:log")
        assert a == b
        assert a[0] == 0

    @pytest.mark.parametrize("argv, digest", [
        (["condition-scatter", "--samples", "8"], "b9d2b611d4849593"),
        (["figure1", "--lambda-grid", "0.5:50:5:log"], "ef5208c125b4e131"),
    ], ids=" ".join)
    def test_output_bytes_pinned(self, tmp_path, argv, digest):
        # sha256 prefixes of the outputs before the table instances, and
        # condition-scatter's delta-kappa, moved into shared code
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("argv, digest", [
        (["exact", "--L", "6", "--lambda", "5"], "d3c95446216be7a1"),
        (["exact", "--L", "6", "--lambda", "5", "--format", "json"], "b50f074ed51b9d94"),
        (["bounds-table", "--L", "4", "--lambda", "6", "--seeds", "3", "--format", "json"],
         "d8ea5c78456051a9"),
        (["figure1", "--lambda-grid", "0.5:20:6:lin", "--format", "json"], "37438a3f56733add"),
        (["condition-scatter", "--samples", "6", "--format", "json"], "c313509948b6e7ff"),
    ], ids=" ".join)
    def test_table_output_bytes_pinned(self, tmp_path, argv, digest):
        # sha256 prefixes of the CSV and JSON branches of the table commands
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("flags, digest", [
        ([], "82705d85a410db8f"),
        (["--format", "json"], "ba5688fc5426d4be"),
    ], ids=["csv", "json"])
    def test_simulate_config_output_pinned(self, tmp_path, flags, digest):
        # the CSV digest leaves out the provenance line, whose spec hash
        # includes the (temporary) config path
        cfg = {"supply": {"rate": 0.3, "lifetime": [5, 12]},
               "horizon_periods": 80, "seed": 4, "replications": 2}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, text = run(tmp_path, "simulate", "--config", str(p), *flags)
        assert code == 0
        if not flags:
            provenance, text = text.split("\n", 1)
            assert provenance.startswith("# uip ") and " seed=4 spec=" in provenance
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("command, options, digest", [
        ("bundle", [[2, 0, 5], [3, 4, 1]], "975dfe5dc4639e20"),
        ("greedy", [[2, 0, 5], [3, 4, 1]], "ce49b97670e5e25d"),
    ])
    def test_freight_instance_output_pinned(self, tmp_path, command, options, digest):
        # the digest is over the JSON output without its provenance, whose
        # spec hash includes the (temporary) instance path
        p = tmp_path / "inst.json"
        p.write_text(freight_instance_json())
        code, text = run(tmp_path, command, "--instance", str(p))
        assert code == 0
        doc = json.loads(text)
        del doc["provenance"]
        assert doc["options"] == options
        blob = json.dumps(doc, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == digest

    def test_freight_file_items_roundtrip(self):
        # items and their freight block are written and read as records, so
        # the file re-writes byte for byte
        text = freight_instance_json()
        inst = instance_from_json(text)
        again = instance_to_json(inst, json.loads(text)["customer"]["quality_spec"])
        assert again == text
        assert instance_from_json(again).items == inst.items

    def test_simulate_byte_identical(self, tmp_path):
        import json as _json

        cfg = {"supply": {"rate": 0.2, "lifetime": [10, 20]},
               "horizon_periods": 120, "seed": 9, "replications": 2}
        p = tmp_path / "cfg.json"
        p.write_text(_json.dumps(cfg))
        a = run(tmp_path, "simulate", "--config", str(p))
        b = run(tmp_path, "simulate", "--config", str(p))
        assert a == b


class TestOutputs:
    def test_provenance_and_header(self, tmp_path):
        code, text = run(tmp_path, "bounds-table", "--L", "2", "--lambda", "2",
                         "--seeds", "1")
        lines = text.splitlines()
        assert code == 0
        assert lines[0].startswith("# uip ")
        assert "seed=" in lines[0] and "spec=" in lines[0]
        assert lines[1] == "kind,L,lambda,mean_rel_err"
        assert len(lines) == 2 + 5  # five approximation kinds

    def test_exact_t0_is_salvage_sum(self, tmp_path):
        inst = generate_synthetic(0, 2, "A", 1.0, demand=0.05, arrival_prob=0.1,
                                  salvage=0.5)
        f = tmp_path / "inst.json"
        f.write_text(instance_to_json(inst, {"scenario": "A", "beta": 1.0}))
        code, text = run(tmp_path, "exact", "--instance", str(f), "--format", "json")
        assert code == 0
        doc = json.loads(text)
        assert doc["value"] == pytest.approx(1.0)
        assert doc["horizon"] == 0

    def test_bundle_json_schema(self, tmp_path):
        code, text = run(tmp_path, "bundle", "--L", "4", "--lambda", "2",
                         "--scenario", "B", "--beta", "2", "--kb", "2",
                         "--ks", "2", "--n-gen", "4", "--n-eval", "2")
        assert code == 0
        doc = json.loads(text)
        for key in ("options", "dfa", "z_star", "optimality_gap", "trace"):
            assert key in doc
        covered = sorted(i for o in doc["options"] for i in o)
        assert covered == [0, 1, 2, 3]

    def test_bundle_member_order_is_not_rounding_noise(self, tmp_path):
        # (0, 2, 4) and (0, 4, 2) score equal up to rounding; the tie goes to
        # the lower pool index, whatever the last bits of the numerics
        code, text = run(tmp_path, "bundle", "--L", "8", "--lambda", "8",
                         "--beta", "2", "--kb", "3", "--ks", "3", "--scenario", "C")
        assert code == 0
        assert [0, 2, 4] in json.loads(text)["options"]

    def test_bundle_n_gen_zero_generates_no_column(self, tmp_path):
        # this run once generated the bundle (0, 4)
        code, text = run(tmp_path, "bundle", "--L", "6", "--lambda", "6", "--beta", "2",
                         "--kb", "3", "--ks", "2", "--scenario", "B", "--n-gen", "0")
        assert code == 0
        doc = json.loads(text)
        assert doc["trace"]["iterations"] == []
        assert doc["options"] == [[j] for j in range(6)]

    def test_bundle_z_star_past_the_lp_size_cap(self, tmp_path):
        # the 7,240-option pool at L=20 is over the simplex's 5000-column cap;
        # Z* drops dominated columns before branch and bound
        code, text = run(tmp_path, "bundle", "--L", "20", "--lambda", "8",
                         "--kb", "3", "--ks", "3")
        assert code == 0
        assert np.isfinite(json.loads(text)["z_star"])

    def test_greedy_json_schema(self, tmp_path):
        code, text = run(tmp_path, "greedy", "--L", "4", "--lambda", "2",
                         "--scenario", "B", "--beta", "2", "--kb", "2", "--ks", "2")
        assert code == 0
        doc = json.loads(text)
        assert "options" in doc and "dfa" in doc

    def test_condition_scatter_shape(self, tmp_path):
        code, text = run(tmp_path, "condition-scatter", "--samples", "4",
                         "--lambda-grid", "2:10:4:log")
        assert code == 0
        lines = text.splitlines()
        assert lines[1].startswith("lambda,bundle_size,delta_kappa,threshold")
        assert len(lines) == 2 + 4

    def test_missing_file_nonzero_exit(self, tmp_path):
        code = main(["exact", "--instance", str(tmp_path / "nope.json")])
        assert code == 1

    @pytest.mark.parametrize("cfg, needle, flags", [
        pytest.param({"horizon_periods": 50, "seed": 1}, "missing key 'supply'", [],
                     id="cfg0-missing key 'supply'"),
        pytest.param({"supply": {"lifetime": [10, 20]}, "horizon_periods": 50, "seed": 1},
                     "missing key 'rate'", [], id="cfg1-missing key 'rate'"),
        pytest.param({"supply": {"rate": 0.2, "lifetime": [10, 20]}, "horizon_periods": 50,
                      "seed": 1, "horizon": 9}, "horizon", [], id="cfg2-horizon"),
        pytest.param({"supply": {"rate": 0.2, "lifetime": [10, 20], "speed": 2},
                      "horizon_periods": 50, "seed": 1}, "speed", [], id="cfg3-speed"),
        pytest.param({"supply": {"rate": 0.2, "lifetime": [10, 20], "pickup_pmf": [0.2] * 5},
                      "horizon_periods": 50, "seed": 1}, "pickup_pmf", [], id="cfg4-pickup_pmf"),
        # a valid file with a flag that the file overrides
        *[pytest.param({"supply": {"rate": 0.2, "lifetime": [10, 20]}, "horizon_periods": 50,
                        "seed": 1}, flag, [flag, value], id=f"ignored{flag}")
          for flag, value in (("--pricing", "linear"), ("--seeds", "5"), ("--seed", "9"))],
        pytest.param({"supply": {"rate": 0.2, "lifetime": [10]}, "horizon_periods": 50,
                      "seed": 1}, "SimConfig JSON", [], id="cfg5-one-lifetime-bound"),
        # an integer field takes an integral number, and lifetime two of them
        *[pytest.param({"supply": {"rate": 0.2, "lifetime": [10, 20]}, "horizon_periods": 50,
                        "seed": 1, key: value}, f"{key} must be an integer, got {value!r}", [],
                       id=f"int-{key}-{value!r}")
          for key, value in (("horizon_periods", 50.5), ("horizon_periods", float("nan")),
                             ("seed", 1.5), ("seed", True), ("replications", 1.5),
                             ("replications", "x"), ("rolling_period", 2.5),
                             ("max_bundles", 1.5))],
        *[pytest.param({"supply": {"rate": 0.2, "lifetime": lifetime}, "horizon_periods": 50,
                        "seed": 1}, needle, [], id=f"lifetime-{lifetime}")
          for lifetime, needle in (([10, 15, 20], "lifetime must have two entries"),
                                   ([10.7, 20], "lifetime must be an integer, got 10.7"))],
    ])
    def test_bad_simulate_config_is_an_error(self, tmp_path, capsys, cfg, needle, flags):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, _ = run(tmp_path, "simulate", "--config", str(p), *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and needle in err

    @pytest.mark.parametrize("market, edit, needle", [
        ("scenario", lambda d: d["customer"].pop("pmf"), "missing key 'pmf'"),
        # the customer block's types and pmf must be the regions' names and
        # arrival_pmf, in the same order
        ("freight", lambda d: d["customer"].update(types=["SAT", "AUS"], pmf=[0.5, 0.5]),
         "differ from the freight region names"),
        ("freight", lambda d: d["customer"].update(types=[0, 1, 2, 3, 4], pmf=[0.2] * 5),
         "differ from the freight region names"),
        ("freight", lambda d: d["customer"].update(types=d["customer"]["types"][::-1],
                                                   pmf=[0.7, 0.1, 0.1, 0.1]),
         "differ from the freight region names"),
        ("freight", lambda d: d["customer"].update(pmf=[0.7, 0.1, 0.1, 0.1]),
         "differs from the freight regions' arrival_pmf"),
        # and its beta_p must be the coefficients' one, whichever copy changed
        ("freight", lambda d: d["customer"].update(beta_p=0.05),
         "differs from the freight coeffs' beta_p"),
        ("freight", lambda d: d["customer"]["quality_spec"]["freight"]["coeffs"].update(
            beta_p=0.05), "differs from the freight coeffs' beta_p"),
        # a load's ends are two finite numbers each, and the message names the load
        ("freight", lambda d: d["items"][1]["freight"].update(pickup=[1.0]),
         "instance JSON: item 1: pickup must be two finite numbers"),
        # a quality vector of one value per type, whatever types the file lists
        ("scenario", lambda d: d["customer"].update(types=[1], pmf=[1.0]), "expected (1,)"),
        # scenario qualities need two numeric features per item
        ("scenario", lambda d: d["items"][1].pop("features"), "item 1"),
        ("scenario", lambda d: d["items"][1].update(features=[0.5]), "item 1"),
        ("scenario", lambda d: d["items"][1].update(features=[0.5, "x"]), "item 1"),
        # every key names a field, at every level of the file
        ("scenario", lambda d: [it.update(salvge=it.pop("salvage")) for it in d["items"]],
         "instance JSON: item 0: unknown key 'salvge'"),
        ("scenario", lambda d: d["customer"].update(quality_spec={"scenario": "B", "Beta": 2.0}),
         "instance JSON: unknown key 'Beta'"),
        ("scenario", lambda d: d.update(horizon=9), "instance JSON: unknown key 'horizon'"),
        ("scenario", lambda d: d["customer"].update(speed=2.0),
         "instance JSON: unknown key 'speed'"),
        ("freight", lambda d: d["customer"]["quality_spec"].update(beta=2.0),
         "instance JSON: unknown key 'beta'"),
        ("freight", lambda d: d["customer"]["quality_spec"]["freight"].update(speed=2.0),
         "instance JSON: unknown key 'speed'"),
        ("freight", lambda d: d["items"][1]["freight"].update(speed=2.0),
         "instance JSON: item 1: unknown key 'speed'"),
        # an integer field takes an integral number
        ("scenario", lambda d: d["items"][1].update(id=1.5),
         "instance JSON: item 1: id must be an integer, got 1.5"),
        ("scenario", lambda d: d["items"][1].update(id=True),
         "instance JSON: item 1: id must be an integer, got True"),
        ("freight", lambda d: d["items"][1]["freight"].update(expiration=30.5),
         "instance JSON: item 1: expiration must be an integer, got 30.5"),
        ("scenario", lambda d: d.update(ks=1.5), "instance JSON: ks must be an integer, got 1.5"),
        ("scenario", lambda d: d.update(kb=2.5), "instance JSON: kb must be an integer, got 2.5"),
    ], ids=["missing-pmf", "freight-2-types", "freight-5-types", "freight-reversed-types",
            "freight-other-pmf", "freight-other-beta-p", "freight-other-coeffs-beta-p",
            "freight-one-coordinate", "scenario-1-type", "no-features", "one-feature",
            "text-feature", "misspelled-salvage", "misspelled-beta", "top-level-key",
            "customer-key", "freight-spec-key", "freight-block-key", "load-key",
            "fractional-id", "boolean-id", "fractional-expiration", "fractional-ks",
            "fractional-kb"])
    def test_bad_bundle_instance_is_an_error(self, tmp_path, capsys, market, edit, needle):
        if market == "freight":
            doc = json.loads(freight_instance_json())
        else:
            inst = generate_synthetic(0, 3, "B", 2.0, demand=2.0)
            doc = json.loads(instance_to_json(inst, {"scenario": "B", "beta": 2.0}))
        edit(doc)
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        code, _ = run(tmp_path, "bundle", "--instance", str(p))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and needle in err

    @pytest.mark.parametrize("block", ["coeffs", "regions"])
    def test_unknown_key_in_instance_freight_block_is_an_error(self, tmp_path, capsys, block):
        doc = json.loads(freight_instance_json())
        doc["customer"]["quality_spec"]["freight"][block]["speed"] = 2.0
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        code, text = run(tmp_path, "bundle", "--instance", str(p))
        err = capsys.readouterr().err
        assert code == 1 and text == ""
        assert err.startswith("error: instance JSON: ") and "unknown key 'speed'" in err

    @pytest.mark.parametrize("command", ["bundle", "greedy", "exact"])
    @pytest.mark.parametrize("flag, value", [
        ("--scenario", "A"), ("--L", "9"), ("--lambda", "3"), ("--mu", "0.2"),
        ("--beta", "2"), ("--beta-p", "-2"), ("--kb", "3"), ("--ks", "1"),
    ])
    def test_synthetic_flag_with_instance_is_an_error(self, tmp_path, capsys, command, flag,
                                                      value):
        # the file replaces every synthetic-instance flag, which would
        # otherwise enter the spec hash unused
        inst = generate_synthetic(0, 3, "B", 2.0, demand=2.0)
        p = tmp_path / "inst.json"
        p.write_text(instance_to_json(inst, {"scenario": "B", "beta": 2.0}))
        code, text = run(tmp_path, command, "--instance", str(p), flag, value)
        err = capsys.readouterr().err
        assert code == 1 and text == ""
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("flag", ["--coeffs", "--regions"])
    @pytest.mark.parametrize("doc, needle", [
        ({"beta0": 1.0}, "missing key"),
        (None, "line 1 column"),  # truncated file: malformed JSON
        # the demo file with one entry made non-finite, by flag
        ({"--coeffs": ("beta_p", np.nan),
          "--regions": ("arrival_pmf", [np.nan, 0.5, 0.5, 0.0])}, "must be finite"),
        ({"--coeffs": ("beta_org", [-0.15, np.inf, 0.15, 0.1]),
          "--regions": ("centroids", [[0.0, 0.0], [55.0, np.nan], [180.0, 245.0],
                                      [190.0, -15.0]])}, "must be finite"),
        ({"--coeffs": ("beta_dst", [-0.1, -0.2, -np.inf, 0.1]),
          "--regions": ("ehat", [45.0, np.inf, 35.0, 40.0])}, "must be finite"),
        # the demo file with a key that names no field
        ({"--coeffs": ("speed", 2.0), "--regions": ("speed", 2.0)}, "unknown key 'speed'"),
    ])
    def test_bad_coeff_or_region_file_is_an_error(self, tmp_path, capsys, flag, doc, needle):
        from uip.freight import demo_coeffs, demo_regions

        full = (demo_coeffs() if flag == "--coeffs" else demo_regions()).to_dict()
        if doc is None:
            text = json.dumps(full)[:40]
        elif flag in doc:
            key, value = doc[flag]
            text = json.dumps(dict(full, **{key: value}))
        else:
            text = json.dumps(doc)
        (tmp_path / "bad.json").write_text(text)
        cfg = {"supply": {"rate": 0.2, "lifetime": [10, 20]},
               "horizon_periods": 20, "seed": 2, "replications": 1}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, _ = run(tmp_path, "simulate", "--config", str(tmp_path / "cfg.json"),
                      flag, str(tmp_path / "bad.json"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and needle in err and "bad.json" in err

    @pytest.mark.parametrize("argv", [
        ["exact", "--L", "-1"],
        ["exact", "--L", "0", "--lambda", "5"],
        ["bundle", "--L", "0", "--lambda", "5"],
        ["exact", "--mu", "0"],
        ["exact", "--lambda", "-2"],
        ["exact", "--kb", "0"],
        ["exact", "--beta-p", "0"],
        ["bundle", "--n-gen", "-1"],
        ["bounds-table", "--seeds", "0"],
        ["bounds-table", "--instance", "/nonexistent.json"],
        ["bounds-table", "--kb", "3"],
        ["bounds-table", "--ks", "2"],
        # flags the command ignores
        ["bundle", "--seeds", "3"],
        ["bundle", "--format", "csv"],
        ["greedy", "--seeds", "3"],
        ["greedy", "--format", "csv"],
        ["exact", "--seeds", "3"],
        ["exact", "--kb", "3"],
        ["exact", "--ks", "1"],
        ["bundle", "--lambda", "0"],
        ["bundle", "--L", "3", "--lambda", "0.05", "--mu", "0.1"],
        ["simulate", "--seeds", "-1"],
        ["figure1", "--lambda-grid", "5"],
        ["figure1", "--lambda-grid", "0:5"],
        ["figure1", "--lambda-grid", "1:5:0"],
        ["figure1", "--lambda-grid", "1:x"],
        ["figure1", "--lambda-grid", "1:5:lgo"],
        ["figure1", "--lambda-grid=-1:5:3:log"],
        ["condition-scatter", "--samples", "-1"],
        ["condition-scatter", "--samples", "0"],
        ["figure1", "--seeds", "3"],
        ["condition-scatter", "--seeds", "3"],
    ], ids=" ".join)
    def test_bad_model_argument_is_an_error(self, tmp_path, capsys, argv):
        code, _ = run(tmp_path, *argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["fluid", "static"])
    def test_greedy_single_item(self, tmp_path, kind):
        # the leave-one-out valuation sees an instance without items
        code, text = run(tmp_path, "greedy", "--L", "1", "--lambda", "3",
                         "--value-kind", kind)
        assert code == 0
        assert json.loads(text)["options"] == [[0]]

    def test_simulate_seeds_one_runs_one_replication(self, tmp_path):
        code, text = run(tmp_path, "simulate", "--seeds", "1", "--format", "json")
        assert code == 0
        samples = json.loads(text)["samples"]
        assert samples and all(len(v) == 1 for v in samples.values())

    def test_simulate_with_coeff_and_region_files(self, tmp_path):
        from uip.freight import demo_coeffs, demo_regions

        (tmp_path / "coeffs.json").write_text(json.dumps(demo_coeffs().to_dict()))
        (tmp_path / "regions.json").write_text(json.dumps(demo_regions().to_dict()))
        cfg = {"supply": {"rate": 0.2, "lifetime": [10, 20]},
               "horizon_periods": 100, "seed": 2, "replications": 2}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, text = run(tmp_path, "simulate",
                         "--config", str(tmp_path / "cfg.json"),
                         "--coeffs", str(tmp_path / "coeffs.json"),
                         "--regions", str(tmp_path / "regions.json"),
                         "--format", "json")
        assert code == 0
        doc = json.loads(text)
        assert "summary" in doc


class TestFigureOneRegimes:
    def test_three_regimes_exist(self):
        grid = np.exp(np.linspace(np.log(0.5), np.log(50.0), 12))
        winners = []
        for lam in grid:
            v0, v1, v2 = intro_example_values(float(lam))
            winners.append(int(np.argmax([v0, v1, v2])))
        assert 2 in winners and 1 in winners and 0 in winners
        lam_low = grid[winners.index(2)]
        lam_mid = grid[winners.index(1)]
        lam_high = grid[winners.index(0)]
        assert lam_low < lam_mid < lam_high
