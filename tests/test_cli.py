import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fareyslopes
from fareyslopes.cfrac import EventuallyPeriodic, semiconvergents
from fareyslopes.cli import main
from fareyslopes.division import beads, divide, division_points, root_interval, ses_check
from fareyslopes.exact import ReducedFraction as F
from fareyslopes.farey import farey_diagram, roller_coaster
from fareyslopes.sheaves import kclass_colimit_check

golden = EventuallyPeriodic((1,), (1,))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convergents_example(capsys):
    code, out, err = run(capsys, "cf", "convergents", "[1;(1)]", "-n", "6")
    assert code == 0 and err == ""
    assert json.loads(out) == ["1/1", "2/1", "3/2", "5/3", "8/5", "13/8"]


def test_chi_example(capsys):
    code, out, _ = run(capsys, "sheaf", "chi", "0/1", "3/1")
    assert code == 0
    assert json.loads(out) == {"dim": 3, "ht": 1}


def test_bottom_example(capsys):
    code, out, _ = run(capsys, "farey", "bottom", "[1;(2)]", "[1;(1)]")
    assert code == 0
    assert json.loads(out) == "3/2"


# the environment of a new process that imports this fareyslopes
_FRESH_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fareyslopes.__file__))}


def _fresh(*args):
    """Run the interpreter on args in a new process that imports this fareyslopes."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_FRESH_ENV, timeout=120)


def test_bottom_past_600_shared_quotients():
    # run as its own process, as a user would, so a traceback would show
    done = _fresh("-m", "fareyslopes.cli", "farey", "bottom", "[1;" + "1," * 600 + "(2)]", "[1;(1)]")
    assert done.returncode == 0 and "Traceback" not in done.stderr
    value = Fraction(2)  # [1;1x600,2]
    for _ in range(601):
        value = 1 + 1 / value
    assert json.loads(done.stdout) == f"{value.numerator}/{value.denominator}"


_MAIN_THEN_SYMPY = (
    "import sys, fareyslopes.cli as cli; code = cli.main(sys.argv[1:]); "
    "print('sympy' in sys.modules, file=sys.stderr); sys.exit(code)"
)


def test_only_construct_imports_sympy(capsys):
    # fresh processes: the test modules themselves import sympy
    done = _fresh("-c", _MAIN_THEN_SYMPY, "farey", "diagram", "[1;(1)]", "1/0", "--depth", "6")
    assert done.returncode == 0 and done.stderr == "False\n"
    # seed 1,1,2 factors only numbers settled in-library; at depth 4 seed
    # 0,1,5 meets a composite cofactor, which sympy factors
    for seed, loads_sympy in (("1,1,2", False), ("0,1,5", True)):
        argv = ["cf", "construct", "--seed", seed, "--depth", "4"]
        done = _fresh("-c", _MAIN_THEN_SYMPY, *argv)
        assert done.returncode == 0 and done.stderr == f"{loads_sympy}\n"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and done.stdout == out


# -- what a call loads ----------------------------------------------------------

_SUBMODULES = ("errors", "exact", "cfrac", "lattice", "invariants", "farey", "sheaves", "division", "render")
_LOADED = "sorted(m for m in sys.modules if m.startswith('fareyslopes.'))"


def test_import_loads_no_submodule_until_first_use():
    script = f"import sys, fareyslopes; print({_LOADED}); fareyslopes.IrrationalNumber; print({_LOADED})"
    done = _fresh("-c", script)
    assert done.returncode == 0 and done.stderr == ""
    before, after = done.stdout.splitlines()
    assert before == "[]"
    assert after == str(sorted(f"fareyslopes.{m}" for m in _SUBMODULES))


# the module each public name came from when the package imported them all eagerly
_PUBLIC = {
    "errors": "FareySlopesError MismatchedTheta NoPath NotDivisionPoint PrecisionExhausted "
    "PrimePickerExhausted SeedRejected TolTooTight UnsupportedObject",
    "exact": "INFINITY ZERO ReducedFraction",
    "cfrac": "ConvergentTable EventuallyPeriodic FinitePrefix IrrationalNumber compare_theta_rational "
    "convergents semiconvergent semiconvergents",
    "lattice": "ThetaLatticeElement chi norm_to_fraction theta_norm",
    "invariants": "CThetaReport LowerBoundOnly Stabilized bounded_quotients c_theta construct_special_theta "
    "d_chain special_conditions_hold",
    "farey": "CuttingSequence FareyDiagram FareyTree FareyTriangle RollerCoaster bottom cutting_sequence "
    "farey_diagram farey_tree is_farey_geodesic left_right_vertices roller_coaster shortest_path_bundle "
    "slope_lt theta_product",
    "sheaves": "DimPair HomReport LimitObjectDescriptor SheafClass StableClass WitnessChain chi_pair "
    "endo_dim_bound enumerate_minimal_triangles farey_type_image hom_classify hom_ext_dims "
    "is_minimal_triangle kclass_colimit_check quotient_multiplicity witness_image_chain",
    "division": "BeadObject DivisionInterval SESReport approximate_rank beads divide division_points "
    "root_interval rotated_rank ses_check",
    "render": "RenderSpec render_svg",
}


def test_public_names_keep_their_bindings():  # guard
    pairs = [(module, name) for module, names in _PUBLIC.items() for name in names.split()]
    assert fareyslopes.__all__ == [name for _, name in pairs]
    for module, name in pairs:
        assert getattr(fareyslopes, name) is getattr(getattr(fareyslopes, module), name), name
    scope = {}
    exec("from fareyslopes import *", scope)
    assert sorted(scope.keys() - {"__builtins__"}) == sorted(fareyslopes.__all__)
    assert all(scope[name] is getattr(fareyslopes, name) for name in fareyslopes.__all__)


def test_submodules_resolve_as_attributes():  # guard
    script = f"import sys, fareyslopes; print([getattr(fareyslopes, m).__name__ for m in {_SUBMODULES}])"
    done = _fresh("-c", script)
    assert done.returncode == 0 and done.stdout == f"{[f'fareyslopes.{m}' for m in _SUBMODULES]}\n"


def test_unknown_name_raises_attribute_error():  # guard
    # before and after the first use binds the public names
    script = (
        "import fareyslopes\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        fareyslopes.no_such_name\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
        "    fareyslopes.ReducedFraction\n"
    )
    done = _fresh("-c", script)
    assert done.returncode == 0 and done.stdout == "module 'fareyslopes' has no attribute 'no_such_name'\n" * 2


_MAIN_THEN_HEAVY = (
    "import sys, fareyslopes.cli as cli; code = cli.main(sys.argv[1:]); "
    "print([m for m in ('fareyslopes.sheaves', 'fareyslopes.division', 'fractions', 'dataclasses') if m in sys.modules], "
    "file=sys.stderr); "
    "sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["cf", "convergents", "[1;(1)]", "-n", "6"],
        ["farey", "diagram", "[1;(1)]", "1/0", "--depth", "6"],
        ["render", "svg", "coaster", "--theta", "[1;(1)]", "--depth", "3", "--format", "json"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_light_commands_skip_sheaves_division_and_fractions(capsys, argv):
    done = _fresh("-c", _MAIN_THEN_HEAVY, *argv)
    assert done.returncode == 0 and done.stderr == "[]\n"
    code, out, _ = run(capsys, *argv)
    assert code == 0 and done.stdout == out


_MAIN_THEN_FAREY = (
    "import sys, fareyslopes.cli as cli; code = cli.main(sys.argv[1:]); "
    "print([m for m in ('fareyslopes.farey', 'fareyslopes.lattice', 'dataclasses') if m in sys.modules], "
    "file=sys.stderr); "
    "sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["sheaf", "chi", "0/1", "3/1"],
        ["sheaf", "enumerate", "--max-rank", "3"],
        ["cf", "ctheta", "[1;(2)]"],
        ["cf", "construct", "--depth", "3"],
        ["sheaf", "bound", "[1;(2)]"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_sheaf_chi_and_enumerate_skip_farey_invariants_and_dataclasses(capsys, argv):
    # the CLI imports invariants for every call; none of these commands
    # loads farey, lattice or dataclasses
    done = _fresh("-c", _MAIN_THEN_FAREY, *argv)
    assert done.returncode == 0 and done.stderr == "[]\n"
    code, out, _ = run(capsys, *argv)
    assert code == 0 and done.stdout == out


_MAIN_THEN_STDLIB = (
    "import sys, fareyslopes.cli as cli; code = cli.main(sys.argv[1:]); "
    "print([m for m in ('dataclasses', 'fractions') if m in sys.modules], file=sys.stderr); "
    "sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["divide", "points", "[1;(1)]", "2/1", "--depth", "3"],
        ["divide", "beads", "[1;(1)]", "2/1", "(0,0)", "(-3,5)"],
        ["divide", "ses", "[1;(1)]", "2/1", "(0,0)", "(-3,5)", "(-1,2)"],
        ["divide", "rank", "[1;(1)]", "2/1", "1/5", "1/100"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_divide_skips_dataclasses_and_fractions(capsys, argv):
    # divide rank is the control: it takes its target and tol as Fractions
    done = _fresh("-c", _MAIN_THEN_STDLIB, *argv)
    loaded = "['fractions']" if argv[1] == "rank" else "[]"
    assert done.returncode == 0 and done.stderr == f"{loaded}\n"
    code, out, _ = run(capsys, *argv)
    assert code == 0 and done.stdout == out


def test_closed_stdout_exits_two_without_a_traceback():
    argv = [sys.executable, "-m", "fareyslopes.cli", "divide", "points", "[1;(1)]", "2/1", "--depth", "12"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_FRESH_ENV) as child:
        child.stdout.close()  # long before the child has started, let alone written
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert code == 2
    assert "Traceback" not in err and err.startswith("error:") and err.count("\n") == 1, err


# malformed calls, at least one per group: (exit code, argv)
_BAD_INPUT = [
    (2, "cf convergents '[1;x]'"),
    (2, "cf construct --seed 1,1,4 --depth 2"),
    (2, "cf semiconvergents '[1;(1)]' -n -2"),
    (2, "farey bottom '[1;(1)]' garbage"),
    (2, "farey tree '[1;(1)]' 2/1 --depth 17"),
    (2, "sheaf hom 2/4 1/1"),
    (2, "sheaf kclass '[0;(1000000)]' --depth 400"),  # an int past str()'s 4300-digit limit
    (2, "divide rank '[1;(1)]' 2/1 1/0 1/10"),  # a zero denominator once escaped as ZeroDivisionError
    (2, "divide rank '[1;(1)]' 2/1 1/5 inf"),
    (2, "divide beads '[1;(1)]' 2/1 '(0,0)' '(2,-3)'"),
    (2, "divide ses '[1;(1)]' 2/1 '(0,0)' '(0,0)' '(-3,5)'"),
    (2, "render svg tessellation --depth 0"),
    (2, "render svg diagram"),
    (3, "render svg coaster --theta '[1;1,1]' --depth 6"),
    (3, "divide points '[1;1]' 2/1 --depth 3"),
]


def test_bad_input_exits_two(capsys):
    # main turns every one into an exit code and one error line, nothing on stdout
    for want, argv in _BAD_INPUT:
        code, out, err = run(capsys, *shlex.split(argv))
        assert (code, out) == (want, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_precision_exhausted_exits_three(capsys):
    code, out, err = run(capsys, "cf", "convergents", "[1;1,1]", "-n", "8")
    assert code == 3 and out == ""
    assert "needed depth" in err


def test_product_of_equal_prefixes_exits_three(capsys):
    # the prefixes may stand for different slopes, so the product is undecided
    code, out, err = run(capsys, "farey", "product", "[1;1,1]", "5/2", "--theta", "[1;1,1]")
    assert code == 3 and out == ""
    assert "needed depth: 4" in err


def test_classify_equal_prefixes_exits_three(capsys):
    # [1;1,1,(2)] and [1;(1)] complete the same prefix to different slopes
    code, out, err = run(capsys, "sheaf", "classify", "[1;1,1]-", "[1;1,1]-")
    assert code == 3 and out == ""
    assert "needed depth: 4" in err
    code, out, _ = run(capsys, "sheaf", "classify", "[1;(1)]-", "[1;(1)]-")
    assert code == 0 and json.loads(out)["verdict"] == "FiniteDivisionAlgebraBound"


def test_divide_rank_takes_exact_decimals(capsys):
    code, out, _ = run(capsys, "divide", "rank", "[1;(1)]", "2/1", "0.12232177361220535", "1e-8")
    assert code == 0
    m, n = (json.loads(out)[-1]["rank_theta"][k] for k in "mn")
    # 0.12232177361220535 - 1e-8 < m*golden + n <= 0.12232177361220535, exactly
    assert golden.lattice_sign(10**17 * m, 10**17 * n - 12232177361220535) <= 0
    assert golden.lattice_sign(10**17 * m, 10**17 * n - 12232176361220535) > 0


def test_diagram_roundtrip(capsys):
    code, out, _ = run(capsys, "farey", "diagram", "[1;(1)]", "1/0", "--depth", "5")
    assert code == 0
    assert json.loads(out) == farey_diagram(golden, F(1, 0), 5).to_dict()


def test_coaster_roundtrip(capsys):
    code, out, _ = run(capsys, "farey", "coaster", "[1;(1)]", "--depth", "3")
    assert code == 0
    assert json.loads(out) == roller_coaster(golden, 3).to_dict()


def test_kclass_roundtrip(capsys):
    code, out, _ = run(capsys, "sheaf", "kclass", "[1;(2)]", "--depth", "5")
    assert code == 0
    want = kclass_colimit_check(EventuallyPeriodic((1,), (2,)), 5).to_dict()
    assert json.loads(out) == want


def test_beads_and_ses_roundtrip(capsys):
    pts = division_points(golden, F(2, 1), 2)
    c, e, d = pts[1], pts[2], pts[4]
    fmt = lambda p: f"({p.m},{p.n})"
    code, out, _ = run(capsys, "divide", "beads", "[1;(1)]", "2/1", fmt(c), fmt(d))
    assert code == 0
    assert json.loads(out) == beads(golden, F(2, 1), c, d).to_dict()
    code, out, _ = run(
        capsys, "divide", "ses", "[1;(1)]", "2/1", fmt(c), fmt(e), fmt(d)
    )
    assert code == 0
    assert json.loads(out) == ses_check(golden, F(2, 1), c, e, d).to_dict()


def test_divide_tree_and_points(capsys):
    code, out, _ = run(capsys, "divide", "tree", "[1;(1)]", "2/1", "--depth", "2")
    assert code == 0
    payload = json.loads(out)
    root = root_interval(golden, F(2, 1))
    assert payload["levels"][0] == [root.to_dict()]
    assert payload["levels"][1] == [iv.to_dict() for iv in divide(root)]
    code, out, _ = run(capsys, "divide", "points", "[1;(1)]", "2/1", "--depth", "3")
    pts = json.loads(out)
    assert code == 0 and len(pts) == 9
    assert [p["value"] for p in pts] == sorted(p["value"] for p in pts)


def test_convergents_rejects_n_below_one(capsys):
    # the message names the flag as typed: -n counts convergents from β_0
    code, out, err = run(capsys, "cf", "convergents", "[1;(1)]", "-n", "0")
    assert (code, out, err) == (2, "", "error: -n must be >= 1\n")


def test_divide_tree_rejects_negative_depth(capsys):
    code, out, err = run(capsys, "divide", "tree", "[1;(1)]", "2/1", "--depth", "-1")
    assert (code, out, err) == (2, "", "error: depth must be >= 0\n")


_DOUBLING = [
    ("divide", "tree", "[1;(1)]", "2/1"),
    ("divide", "points", "[1;(1)]", "2/1"),
    ("farey", "tree", "[1;(1)]", "2/1"),
    ("render", "svg", "tree", "--theta", "[1;(1)]", "--far", "2/1"),
    ("render", "svg", "tessellation"),
]


@pytest.mark.parametrize("argv", _DOUBLING, ids=lambda argv: " ".join(argv[:3]))
def test_outputs_that_double_per_level_cap_the_depth(capsys, argv):
    for depth in ("17", "2000"):
        code, out, err = run(capsys, *argv, "--depth", depth)
        assert (code, out, err) == (2, "", "error: depth must be <= 16: the output doubles with each level\n")


def test_depth_cap_admits_16(capsys):
    code, out, err = run(capsys, "render", "svg", "tessellation", "--depth", "16", "--format", "json")
    assert (code, out, err) == (0, "16\n", "")


def test_semiconvergent_rows_are_capped(capsys):
    code, out, err = run(capsys, "cf", "semiconvergents", "[0;(65537)]", "-n", "0")
    assert (code, out) == (2, "") and "65537" in err
    code, out, err = run(capsys, "cf", "semiconvergents", "[0;(65536)]", "-n", "0")
    assert code == 0 and err == ""
    row = json.loads(out)
    assert len(row) == 65537 and row == [str(b) for b in semiconvergents(EventuallyPeriodic((0,), (65536,)), 0)]
    # the library builds the row the CLI refuses
    assert len(semiconvergents(EventuallyPeriodic((0,), (65537,)), 0)) == 65538


def test_semiconvergent_errors_keep_their_bytes(capsys):  # guard
    # the cap reads convergent i + 1 and quotient i + 2 after the index check,
    # as the library does, so these messages are the library's
    short = "error: quotient prefix too short (needed depth: 4): prefix of 3 quotients cannot answer depth 3\n"
    assert run(capsys, "cf", "semiconvergents", "[0;1,2]", "-n", "1") == (3, "", short)
    assert run(capsys, "cf", "semiconvergents", "[0;1,2]", "-n", "3") == (3, "", short)
    assert run(capsys, "cf", "semiconvergents", "[0;1,2]", "-n", "-2") == (
        2, "", "error: semiconvergent row starts at i = -1\n"
    )


def test_ctheta_and_construct(capsys):
    code, out, _ = run(capsys, "cf", "ctheta", "[0;1,2,(1,3)]")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == {"kind": "stabilized", "c": 3}
    assert payload["chain"][0] == 1
    code, out, _ = run(capsys, "cf", "construct", "--seed", "1,1,2", "--depth", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["conditions_hold"] is True
    assert all(y > x for x, y in zip(payload["d_chain"], payload["d_chain"][1:]))
    code, _, err = run(capsys, "cf", "construct", "--seed", "1,1,4")
    assert code == 2 and "error:" in err


def test_render_to_file(capsys, tmp_path):
    out_file = tmp_path / "fig.svg"
    code, out, _ = run(
        capsys,
        "render", "svg", "tessellation", "--depth", "3", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["written"] == str(out_file)
    data = out_file.read_bytes()
    assert payload["bytes"] == len(data)
    assert data.startswith(b"<svg")


def test_render_stdout_determinism(capsys):
    code, first, _ = run(capsys, "render", "svg", "tessellation", "--depth", "3")
    assert code == 0 and first.lstrip().startswith("<svg")
    code, second, _ = run(capsys, "render", "svg", "tessellation", "--depth", "3")
    assert first == second


def test_render_format_json(capsys):
    code, out, _ = run(
        capsys,
        "render", "svg", "coaster", "--theta", "[1;(1)]", "--depth", "3",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == roller_coaster(golden, 3).to_dict()


def test_render_config_styles(capsys, tmp_path):
    cfg = tmp_path / "style.cfg"
    cfg.write_text("# palette\nstroke=#ff0000\nstroke_width=2.5\n")
    code, out, _ = run(
        capsys,
        "render", "svg", "tessellation", "--depth", "2", "--config", str(cfg),
    )
    assert code == 0
    assert 'stroke="#ff0000"' in out
    assert 'stroke-width="2.5"' in out


def test_render_missing_theta_is_input_error(capsys):
    code, _, err = run(capsys, "render", "svg", "diagram", "--far", "1/0")
    assert code == 2 and "error:" in err


def _readme_commands():
    """The argument lists of the README's CLI examples."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("fareyslopes ")]


def test_readme_commands_never_raise(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # render examples write their --out file here
    commands = _readme_commands()
    assert len(commands) >= 16
    # its (phase, q mod A) state cycle once outran a 10 000-step cap
    commands.append(["cf", "ctheta", "[0;(1,10007)]"])
    big = 10**400
    commands.append(["farey", "tree", "[1;(1)]", f"{big + 1}/{big}"])
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
    # a 400-digit fraction once overflowed the float translate estimate
    assert code == 0 and json.loads(out)["root"]["fraction"] == f"{big + 1}/{big}"


# exit code and sha256 of stdout of each README command
_README_BYTES = {
    "cf convergents '[1;(1)]' -n 6": (0, "629871ff8e10f625dc254be536f5b5eabc337d4880519a07293e00b8a3d01cee"),
    "cf ctheta '[0;1,2,(1,3)]'": (0, "ca3072c90e8e46e560bf547d6763f09f676006a10e29bf505e0e4763afa495c4"),
    'cf construct --seed 1,1,2 --depth 4': (0, "1c1e02f9d1cbd8eb9ae2e09c7102e28257fc0a32c8c9d15cfd0137464642872d"),
    "farey diagram '[1;(1)]' 1/0 --depth 6": (0, "6029b22de56eb62d8ec23ff07531d52d0365175ecad7863363710c4531969a83"),
    "farey cutting '[1;(2)]' --depth 8": (0, "c6cb6eaa740e1c0d3f7356e322fb6f336bbc49bf864ff3b30bde3739efaa96e7"),
    "farey bottom '[1;(2)]' '[1;(1)]'": (0, "f40e0e5bcd958be5b6a98e97fbf93a61fe86485970d2606ee03b8e0f5cfe639e"),
    "farey product 3/2 1/0 --theta '[1;(1)]'": (0, "f40e0e5bcd958be5b6a98e97fbf93a61fe86485970d2606ee03b8e0f5cfe639e"),
    'sheaf chi 0/1 3/1': (0, "9b6d35627c396d620b9416d51ba933a565156b27abd730cab3e5ceb0ef431df4"),
    'sheaf hom 0/1 1/1': (0, "5b016872e7cbfa260ac427a9a6395059e18c99fb2c2a749b3920c80d337788a3"),
    'sheaf enumerate --max-rank 2': (0, "c759a3484c7b45726b0c5ed357240f37d6a5722f0f76f8f8196c5414835f94b1"),
    "sheaf classify '[1;(2)]-' '[1;(1)]+' --depth 4": (0, "965ceb7478cb7d322084a906485da755a506a437e2fc27e7353b79556a394fc7"),
    "divide points '[1;(1)]' 2/1 --depth 3": (0, "b8eebcba8361eef4e103caf192a5974d5c93bdfbf80ad9b9f74b28d749fb2aa2"),
    "divide beads '[1;(1)]' 2/1 '(0,0)' '(-3,5)'": (0, "228606e56e323a70dd003da8500a1af894eaecd67b62e8c2fb5192d9f30720b5"),
    "divide ses '[1;(1)]' 2/1 '(0,0)' '(-3,5)' '(-1,2)'": (0, "b2d7add6ccb3f91c6988ececa0d37a364c2d1e5fb879f868330c4d520846f5a0"),
    'render svg tessellation --depth 6 --out tess.svg': (0, "3c51b136b1d1f9920f7a7133bbe9fa2ef5ffb8210f6885d2c548ed3bf00c2da8"),
    "render svg coaster --theta '[1;(1)]' --depth 3 --format json": (0, "8b94d2fd5488465a81d28039f2071026bb5b76eafb1fda301c4bec676ec5ff68"),
}


# exit code and sha256 of stdout of CLI paths the README commands leave out
_OTHER_BYTES = {
    "sheaf minimal 1/1 2/1 1/0": (0, "5e249b984a33297cb763665207f4ffb3b7b0d22b1331a7db7f197a5d5127d327"),
    "sheaf minimal 0/1 2/1 1/0": (0, "bbd7aea1d7cf5ca454970a2cd966664b8d3090b9a0db3e9f1f3d298cbdafe9a2"),
    "sheaf bound '[1;(2)]'": (0, "a29e5e9a80ad0af5e609e0722824fb77105cfd27694136dbbd27c5bc1c1c8c29"),
    "sheaf image '[1;(2)]' '[1;(1)]'": (0, "dc483bb933a3e7a6ee12c09850cf6dd1ede5b97cfae5508aa31b2558a61a1de0"),
    "sheaf multiplicity 3/2 1/1": (0, "7d08b4f9e31230d0b01ae4b7766636dd0fcd8f318c2ce5113f5a15a606d064a8"),
    "cf dchain '[1;(2)]' -n 4": (0, "18786dd9aa2a36f8a5ebed48f961fa5baa57121e2eed64fd941f41078a07edb2"),
    "cf ctheta '[1;2,3,4]'": (0, "77c3c8361fb6ba132bec636af4560693d72b877f0527f554bf6cd55b684b6d38"),
    "cf construct --seed x": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "render svg diagram --theta '[1;(1)]' --far 2/1 --depth 4 --size 64": (
        0, "047a8e04cb1aebfd11aef75f908e29e244e12f7d7d7b0ae39add1714ddbcfe24"
    ),
    "render svg tree --theta '[1;(1)]' --far 2/1 --depth 3 --size 64": (
        0, "05a9b7f0199a6df74b73e69aecd1ca1ba4995363578c3f74f8a46c3b3670f93e"
    ),
    "render svg tessellation --theta '[1;(1)]' --far 2/1 --depth 3 --size 64": (
        0, "1b3554529a80ed86f0d9a6717526385a42caf0689b2285c89c68ea2703901953"
    ),
}


@pytest.mark.parametrize("call", sorted(_OTHER_BYTES))
def test_other_commands_keep_their_bytes(capsys, call):
    code, out, _ = run(capsys, *shlex.split(call))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _OTHER_BYTES[call]


def test_readme_commands_keep_their_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # so `--out tess.svg` reports the same path
    seen = {}
    for argv in _readme_commands():
        code, out, _ = run(capsys, *argv)
        seen[shlex.join(argv)] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert seen == _README_BYTES
