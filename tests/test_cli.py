"""Command-line interface: subcommands, artifacts, determinism."""

from fractions import Fraction

import pytest

from qsurg import cli, codes, gf2, ltsp, protocol, surgery, tableau


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    base = tmp_path_factory.mktemp("manifests")
    assert cli.main(["codes", "build", "--name", "surface3",
                     "--out", str(base)]) == 0
    assert cli.main(["codes", "build", "--name", "hamming",
                     "--out", str(base)]) == 0
    return base


class TestCodesCommands:
    def test_unknown_code(self, tmp_path, capsys):
        assert cli.main(["codes", "build", "--name", "nope",
                         "--out", str(tmp_path)]) == 2

    def test_distance(self, manifests, capsys):
        assert cli.main(["distance", "--manifest",
                         str(manifests / "surface3.manifest")]) == 0
        assert "d=3 exact" in capsys.readouterr().out

    def test_distance_constant_rate(self, tmp_path, capsys):
        ham = codes.hamming_743()
        path = codes.save_css(codes.hypergraph_product(ham, ham),
                              str(tmp_path), name="hgp")
        assert cli.main(["distance", "--manifest", path]) == 0
        assert capsys.readouterr().out == "d=3 exact\n"

    def test_negative_budget_rejected(self, manifests, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["distance", "--manifest",
                      str(manifests / "surface3.manifest"), "--budget", "-3"])
        assert err.value.code == 2
        assert "argument --budget: -3 is negative" in capsys.readouterr().err

    def test_soundness(self, manifests, capsys):
        assert cli.main(["soundness", "--manifest",
                         str(manifests / "hamming.manifest")]) == 0
        assert "7/3" in capsys.readouterr().out

    @pytest.mark.parametrize("claim", [None, Fraction(7, 3)])
    def test_soundness_table_built_once(self, tmp_path, capsys, monkeypatch,
                                        claim):
        # A manifest's checked soundness= is the answer: one table either way.
        code = codes.hamming_743()
        code.soundness = claim
        path = codes.save_classical(code, str(tmp_path), name="ham")
        calls = []
        real = gf2.syndrome_table
        monkeypatch.setattr(gf2, "syndrome_table",
                            lambda *a: calls.append(a) or real(*a))
        assert cli.main(["soundness", "--manifest", path]) == 0
        assert capsys.readouterr().out == "7/3\n" and len(calls) == 1


class TestSurgeryCommand:
    def test_build_artifacts(self, manifests, tmp_path):
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("1 1\n1\n")
        out = tmp_path / "dc"
        code = cli.main(["surgery", "build",
                         "--target", str(manifests / "surface3.manifest"),
                         "--alpha", str(alpha),
                         "--rcode", str(manifests / "hamming.manifest"),
                         "--out", str(out)])
        assert code == 0
        hdx = gf2.load_matrix(out / "hdx.txt")
        assert hdx.shape[1] == 103
        assert (out / "report.txt").read_text().startswith("glue_report=ok")


class TestBadInput:
    """A bad input file ends a command with `<command>: <message>` on
    stderr and exit 2, not a traceback."""

    def run(self, capsys, argv, says):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: ") and says in err
        assert "Traceback" not in err and err.count("\n") == 1

    @staticmethod
    def surgery_build(manifests, alpha_text, tmp_path):
        alpha = tmp_path / "alpha.txt"
        alpha.write_text(alpha_text)
        return ["surgery", "build",
                "--target", str(manifests / "surface3.manifest"),
                "--alpha", str(alpha),
                "--rcode", str(manifests / "hamming.manifest"),
                "--out", str(tmp_path / "dc")]

    @pytest.mark.parametrize("alpha, says", [
        ("2 1\n1\n1\n", "alpha rows are dependent"),
        ("1 1\n1\n1\n", "alpha.txt: 2 row lines, expected 1")])
    def test_bad_alpha(self, manifests, tmp_path, capsys, alpha, says):
        self.run(capsys, self.surgery_build(manifests, alpha, tmp_path), says)

    def test_manifest_n_disagrees(self, manifests, tmp_path, capsys):
        path = tmp_path / "surface3.manifest"
        text = (manifests / "surface3.manifest").read_text()
        path.write_text(text.replace("n=13", "n=9").replace(
            "=surface3", f"={manifests}/surface3"))
        self.run(capsys, ["distance", "--manifest", str(path)],
                 "n=9 but hx has 13 columns")

    def test_manifest_d_above_distance(self, manifests, tmp_path, capsys):
        path = tmp_path / "surface3.manifest"
        text = (manifests / "surface3.manifest").read_text()
        path.write_text(text.replace("d=3", "d=4").replace(
            "=surface3", f"={manifests}/surface3"))
        self.run(capsys, ["distance", "--manifest", str(path)],
                 f"manifest {path}: d=4 but the code has a logical of "
                 "weight 3\n")

    @pytest.mark.parametrize("old, new, says", [
        ("d=3", "d=x", "d=x is not a positive integer"),
        ("d=3", "d=-3", "d=-3 is not a positive integer"),
        ("d=3", "d=0", "d=0 is not a positive integer"),
        ("n=13", "n=x", "n=x is not a non-negative integer")])
    def test_manifest_integer(self, manifests, tmp_path, capsys, old, new,
                              says):
        path = tmp_path / "surface3.manifest"
        text = (manifests / "surface3.manifest").read_text()
        path.write_text(text.replace(old, new).replace(
            "=surface3", f"={manifests}/surface3"))
        self.run(capsys, ["distance", "--manifest", str(path)],
                 f"manifest {path}: {says}\n")

    def test_refused_soundness(self, tmp_path, capsys):
        # C(30, ≤30) = 2^30 sets and the 31·2^29 bound both exceed the cap.
        path = codes.save_classical(codes.repetition(30), str(tmp_path),
                                    name="rep30")
        self.run(capsys, ["soundness", "--manifest", path],
                 "soundness: syndrome table of 1073741824 sets refused\n")

    def test_refused_soundness_claim(self, tmp_path, capsys):
        # load_manifest keeps a claim it cannot check, but qsurg soundness
        # must compute the soundness, so it is refused, not the claim printed.
        code = codes.repetition(30)
        code.soundness = Fraction(2, 1)
        path = codes.save_classical(code, str(tmp_path), name="rep30")
        assert codes.load_manifest(path).soundness == Fraction(2, 1)
        self.run(capsys, ["soundness", "--manifest", path],
                 "soundness: syndrome table of 1073741824 sets refused\n")

    def test_refused_search(self, manifests, capsys, monkeypatch):
        # Out of every search's reach, the manifest's d=3 is kept unchecked
        # and the budget search is refused.
        monkeypatch.setattr(gf2, "TABLE_CAP", 13)
        self.run(capsys, ["distance", "--manifest",
                          str(manifests / "surface3.manifest"),
                          "--budget", "2"],
                 "distance: collision sweep of 14 sets refused\n")

    def test_missing_file(self, tmp_path, capsys):
        self.run(capsys, ["distance", "--manifest",
                          str(tmp_path / "nope.manifest")],
                 "No such file or directory")

    def test_soundness_of_css_manifest(self, manifests, capsys):
        self.run(capsys, ["soundness", "--manifest",
                          str(manifests / "surface3.manifest")],
                 "is not a classical code")

    def test_non_standard_test_code(self, manifests, tmp_path, capsys):
        ham = codes.hamming_743()
        ham.g, ham.h = ham.g[:, ::-1].copy(), ham.h[:, ::-1].copy()
        path = codes.save_classical(ham, str(tmp_path), name="ham")
        self.run(capsys, ["ltsp", "verify",
                          "--source", str(manifests / "surface3.manifest"),
                          "--fcode", path, "--seed", "1"],
                 "test-code generator must be in standard form")

    @pytest.mark.parametrize("value, says", [
        ("1/0", "soundness=1/0 is not a positive p/q"),
        ("-7/3", "soundness=-7/3 is not a positive p/q"),
        ("0/3", "soundness=0/3 is not a positive p/q"),
        ("abc", "soundness=abc is not a positive p/q"),
        ("1/100", "soundness=1/100 but the code's soundness is 7/3")])
    def test_bad_soundness(self, manifests, tmp_path, capsys, value, says):
        # A manifest's soundness= sets the amplification of the spZ bound,
        # so ltsp verify must not run on a wrong one.
        path = codes.save_classical(codes.hamming_743(), str(tmp_path),
                                    name="ham")
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"soundness={value}\n")
        self.run(capsys, ["ltsp", "verify",
                          "--source", str(manifests / "surface3.manifest"),
                          "--fcode", path, "--seed", "1", "--samples", "0"],
                 f"manifest {path}: {says}")

    def test_protocol_check_needs_distances(self, manifests, tmp_path,
                                            capsys):
        # The lemma.cs sweeps stop one below the target distance and the
        # deformed floor, so both manifests must give d=.
        assert cli.main(self.surgery_build(manifests, "1 1\n1\n",
                                           tmp_path)) == 0
        check = ["protocol", "check", "--deformed", str(tmp_path / "dc"),
                 "--seed", "1"]
        assert cli.main(check) == 0
        assert "checked=1326 exhaustive_w=2" in capsys.readouterr().out
        target = tmp_path / "dc" / "target.manifest"
        lines = target.read_text().splitlines(keepends=True)
        target.write_text("".join(x for x in lines if not x.startswith("d=")))
        self.run(capsys, check, "the target and R code manifests must set d=")

    def test_kernel_errors_propagate(self, manifests, tmp_path, monkeypatch):
        # Only building from the inputs is reported as bad input; an error
        # a lemma kernel raises afterwards still ends the command.
        assert cli.main(self.surgery_build(manifests, "1 1\n1\n",
                                           tmp_path)) == 0

        def broken(run, e_before, e_after):
            raise ValueError("kernel broke")

        monkeypatch.setattr(protocol, "surgery_residual_z", broken)
        with pytest.raises(ValueError, match="kernel broke"):
            cli.main(["protocol", "check", "--deformed", str(tmp_path / "dc"),
                      "--seed", "1"])


class TestSimCommand:
    def test_report_format(self, tmp_path, capsys):
        spec = tmp_path / "mem.spec"
        spec.write_text("kind=surface_memory\nd=3\n")
        out = tmp_path / "report.tsv"
        assert cli.main(["sim", "run", "--circuit", str(spec), "--p", "0",
                         "--trials", "50", "--seed", "1",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("p\ttrials\tfailures\testimate\tci_low\tci_high"
                            "\tz_heralded\tz_silent\tx_heralded\tx_silent")
        assert lines[1].split("\t")[2] == "0"
        assert lines[1].split("\t")[6:] == ["0", "0", "0", "0"]

    def test_seed_required(self, tmp_path):
        spec = tmp_path / "mem.spec"
        spec.write_text("kind=surface_memory\nd=3\n")
        with pytest.raises(SystemExit) as err:
            cli.main(["sim", "run", "--circuit", str(spec), "--p", "0",
                      "--trials", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--p", "2"), ("--p", "-0.1"),
                                            ("--trials", "-5")])
    def test_rejects_bad_flags(self, tmp_path, capsys, flag, value):
        spec = tmp_path / "mem.spec"
        spec.write_text("kind=surface_memory\nd=3\n")
        args = {"--p": "0.001", "--trials": "10"}
        args[flag] = value
        with pytest.raises(SystemExit) as err:
            cli.main(["sim", "run", "--circuit", str(spec), "--seed", "1",
                      *(x for kv in args.items() for x in kv)])
        assert err.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err


    @pytest.mark.parametrize("text,says", [
        ("kind=surface_memory\n", "d=''"),
        ("kind=surface_memory\nd=three\n", "d='three'"),
        ("kind=surface_memory\nd=4\n", "d='4'"),
        ("kind=surface_memory\nd=-3\n", "d='-3'"),
    ])
    def test_rejects_bad_spec(self, tmp_path, capsys, text, says):
        spec = tmp_path / "mem.spec"
        spec.write_text(text)
        assert cli.main(["sim", "run", "--circuit", str(spec), "--p", "0",
                         "--trials", "5", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert f"circuit spec must set d=<odd positive integer>, not {says}" in err
        assert "Traceback" not in err


class TestMaxWeightFlag:
    @pytest.mark.parametrize("command,value", [
        (["ledger", "--preset", "desk"], "3"),
        (["ledger", "--preset", "desk"], "-1"),
        (["protocol", "check", "--deformed", "d"], "3"),
        (["protocol", "check", "--deformed", "d"], "-1"),
    ])
    def test_out_of_range_rejected(self, capsys, command, value):
        with pytest.raises(SystemExit) as err:
            cli.main(command + ["--seed", "1", "--max-weight", value])
        assert err.value.code == 2
        assert "argument --max-weight" in capsys.readouterr().err

    def test_ltsp_weight_zero(self, manifests, capsys):
        # ltsp verify has no --max-weight: with no samples, both sweeps
        # check exactly the unit faults of each copy.
        assert cli.main(["ltsp", "verify",
                         "--source", str(manifests / "surface3.manifest"),
                         "--fcode", str(manifests / "hamming.manifest"),
                         "--samples", "0", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        rows = [line.split("\t") for line in out.splitlines()]
        spx = [r[2] for r in rows if r[0].startswith("lemma.ltsp.spX.")]
        spz = [r[2] for r in rows if r[0].startswith("lemma.ltsp.spZ.")]
        assert spx == ["checked=1140 units, all weights (linear)"] * 4
        assert [d.split()[0] for d in spz] == ["checked=1218"] * 4


class TestLtspNoiseless:
    def test_verify_checks_stabilizer_phases(self, manifests, capsys,
                                             monkeypatch):
        # ltsp.noiseless means one thing in ltsp verify and in the ledger:
        # the zero-forced run reads zero and every copy is stabilized.
        argv = ["ltsp", "verify",
                "--source", str(manifests / "surface3.manifest"),
                "--fcode", str(manifests / "hamming.manifest"),
                "--samples", "0", "--seed", "1"]
        assert cli.main(argv) == 0
        assert ("ltsp.noiseless\tpass\tall copies exactly stabilized"
                in capsys.readouterr().out)
        monkeypatch.setattr(tableau, "stabilizer_phase", lambda *a: 1)
        assert cli.main(argv) == 1
        assert ("ltsp.noiseless\tFAIL\tall copies exactly stabilized"
                in capsys.readouterr().out)


class TestSamplesFlag:
    @pytest.mark.parametrize("command", [
        ["ltsp", "verify", "--source", "s", "--fcode", "f"],
        ["ledger", "--preset", "desk"],
    ])
    def test_negative_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            cli.main(command + ["--seed", "1", "--samples", "-4"])
        assert err.value.code == 2
        msg = capsys.readouterr().err
        assert "argument --samples: -4 is negative" in msg
        assert "Traceback" not in msg


class TestSeedFlag:
    @pytest.mark.parametrize("command,value", [
        (["ledger", "--preset", "desk"], "-1"),
        (["sim", "run", "--circuit", "c", "--p", "0", "--trials", "1"],
         str(1 << 128)),
        (["ltsp", "verify", "--source", "s", "--fcode", "f"], "-1"),
        (["protocol", "check", "--deformed", "d"], str(1 << 128)),
    ])
    def test_out_of_range_rejected(self, capsys, command, value):
        with pytest.raises(SystemExit) as err:
            cli.main(command + ["--seed", value])
        assert err.value.code == 2
        msg = capsys.readouterr().err
        assert f"argument --seed: {value} is not a seed in [0, 2^128)" in msg
        assert "Traceback" not in msg


class TestCompileCommand:
    def test_outputs(self, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("CNOT u.0 v.1\nT w.2\nMEA x.0\n")
        sched = tmp_path / "sched.tsv"
        cost = tmp_path / "cost.tsv"
        assert cli.main(["compile", "--circuit", str(ops), "--k", "4",
                         "--out", f"{sched},{cost}"]) == 0
        assert sched.read_text().startswith("class\t")
        assert "CNOT" in sched.read_text()
        assert cost.read_text().startswith("class\tfamily")

    @pytest.mark.parametrize("text,k,says", [
        ("CNOT a.0 b.0\nCNOT a.1 c.0\n", "1", "outside 0..0"),
        ("H b.5\n", "2", "outside 0..1"),
        ("INIT a\nINIT a\n", "1", "block a hosts 2 operations"),
        ("INIT a\nMEA a.0\n", "2", "not qubit-disjoint"),
        ("INIT\n", "2", "INIT takes one block"),
        ("H a\n", "2", "operands are block.qubit"),
    ])
    def test_rejects_bad_circuit(self, tmp_path, capsys, text, k, says):
        ops = tmp_path / "ops.txt"
        ops.write_text(text)
        assert cli.main(["compile", "--circuit", str(ops), "--k", k, "--out",
                         f"{tmp_path / 's.tsv'},{tmp_path / 'c.tsv'}"]) == 2
        err = capsys.readouterr().err
        assert says in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value,says", [
        ("--k", "0", "0 is not a positive integer"),
        ("--k-r", "0", "0 is not a positive integer"),
        ("--k-f", "-1", "-1 is not a positive integer"),
        ("--d-s", "0", "0 is not a positive integer"),
        ("--out", "a.tsv", "'a.tsv' is not two comma-separated paths"),
        ("--out", "a.tsv,", "'a.tsv,' is not two comma-separated paths"),
    ])
    def test_rejects_bad_flags(self, tmp_path, capsys, flag, value, says):
        ops = tmp_path / "ops.txt"
        ops.write_text("H u.0\n")
        args = {"--k": "2", "--out": f"{tmp_path / 's.tsv'},{tmp_path / 'c.tsv'}"}
        args[flag] = value
        with pytest.raises(SystemExit) as err:
            cli.main(["compile", "--circuit", str(ops),
                      *(x for kv in args.items() for x in kv)])
        assert err.value.code == 2
        msg = capsys.readouterr().err
        assert f"argument {flag}: {says}" in msg and "Traceback" not in msg


class TestLedgerCommand:
    def test_vacuous_weight_zero(self, tmp_path, capsys):
        # max-weight 0 turns the exhaustive sweeps vacuous but still passes;
        # the statistical trend row keeps enough trials to resolve.
        code = cli.main(["ledger", "--preset", "desk", "--seed", "7",
                         "--out", str(tmp_path / "out"),
                         "--max-weight", "0", "--samples", "10",
                         "--trials", "20000"])
        assert code == 0
        text = (tmp_path / "out" / "ledger.tsv").read_text()
        assert "FAIL" not in text

    def test_tele_rows_have_their_own_results(self, monkeypatch):
        real = protocol.effective_x_error

        def one_row_fails(tm, faults):
            e_eff, ok = real(tm, faults)
            ok[0] = False
            return e_eff, ok

        monkeypatch.setattr(protocol, "effective_x_error", one_row_fails)
        rows = {key: good for key, good, _ in cli.run_desk_ledger(
            seed=5, out_dir=None, max_weight=1, samples=10, trials=1000,
            frames=10)}
        assert rows["lemma.tele.effZ"] and not rows["lemma.tele.effX"]

    def test_linear_certificate_can_fail(self, monkeypatch):
        real = ltsp.check_z_bound

        def one_image_weighs_two(spp, e):
            e_rs, ok = real(spp, e)
            e_rs[0, :2] = 1
            return e_rs, ok

        monkeypatch.setattr(ltsp, "check_z_bound", one_image_weighs_two)
        rows = {key: good for key, good, _ in
                cli.check_preparation(cli.Desk(5, samples=40))}
        assert not rows["lemma.ltsp.spX"] and rows["lemma.ltsp.spZ"]

    @pytest.mark.parametrize("samples,checked", [(10, 4882), (3, 4875)])
    def test_samples_spread_over_copies(self, samples, checked):
        # 4872 unit faults over the four copies, plus every sample: the
        # first samples % 4 copies take one pair more.
        rows = {key: detail for key, _, detail in
                cli.check_preparation(cli.Desk(42, samples=samples))}
        assert rows["lemma.ltsp.spZ"] == f"checked={checked}"

    def test_vacuous_distance_row_says_k0(self):
        # The desk deformed code encodes nothing, so the row checks nothing.
        rows = {key: detail
                for key, _, detail in cli.check_deformed(cli.Desk(5))}
        assert rows["lemma.pcs.distance"] == "no logical error of weight<=2 k=0"

    def test_extraction_failure_is_a_fail_row(self, monkeypatch):
        def fails(dc):
            raise surgery.InternalConsistencyError("identity broken")

        monkeypatch.setattr(surgery, "measured_extraction", fails)
        rows = {key: (good, detail)
                for key, good, detail in cli.check_deformed(cli.Desk(5))}
        assert rows["lemma.pcs.extraction"] == (False, "identity broken")
        assert rows["lemma.pcs.lifted"][0] and rows["lemma.pcs.distance"][0]

    def test_unknown_preset(self):
        assert cli.main(["ledger", "--preset", "galaxy", "--seed", "1"]) == 2

    def test_glue_failure_is_a_fail_row(self, monkeypatch, tmp_path, capsys):
        def fails(target, alpha):
            raise surgery.GlueConstructionError("no glue for this alpha")

        monkeypatch.setattr(surgery, "build_glue", fails)
        code = cli.main(["ledger", "--preset", "desk", "--seed", "7",
                         "--out", str(tmp_path / "out")])
        row = "lemma.pcs.glue\tFAIL\tno glue for this alpha\n"
        assert code == 1 and capsys.readouterr().out == row
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["ledger.tsv"]
        text = (tmp_path / "out" / "ledger.tsv").read_text()
        assert text == "key\tstatus\tdetail\n" + row

    def test_small_ledger_deterministic(self, tmp_path):
        args = ["ledger", "--preset", "desk", "--seed", "11",
                "--max-weight", "1", "--samples", "50", "--trials", "20000"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "ledger.tsv").read_bytes()
        b = (tmp_path / "b" / "ledger.tsv").read_bytes()
        assert a == b
