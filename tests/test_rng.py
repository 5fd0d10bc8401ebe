"""The stream is the spec: the pure-Python Philox 4x64-10 of
tests/oracles.py, keyed (seed, 0) with the first block at counter 1,
reproduces bit_stream bit for bit, and the Sampler's draws from the
same words replay the key-lemma families."""

import ast
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import hamext
from hamext import errors, rng
from hamext.keylemma import verify_key_lemma
from hamext.rng import Sampler, bit_stream
from oracles import (MASK, MULTIPLIERS, OracleSampler, check_keylemma_report,
                     contained_counts_oracle, gamma_oracle, philox_bits)


@pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1])
@pytest.mark.parametrize("length", [1, 63, 257, 1000])
def test_oracle_reproduces_bit_stream(seed, length):
    assert bit_stream(seed, length).tolist() == philox_bits(seed, length)


def test_the_first_block_is_counter_one_not_zero():
    assert bit_stream(1, 256).tolist() != philox_bits(1, 256, first_counter=0)


# 2^63 + 1 rejects about half the words (16 draws reject some at both
# seeds), 2^64 and 1 none
@pytest.mark.parametrize("seed", [0, MASK])
def test_oracle_replays_the_sampler(seed):
    sampler, oracle = Sampler(seed), OracleSampler(seed)
    for m in (1, 2, 3, 1000, 1 << 64) * 4 + ((1 << 63) + 1,) * 16:
        assert sampler.below(m) == oracle.below(m)
    for n, k in ((0, 1), (3, 0), (3, 5), (5, 32), (6, 17)):
        assert set(sampler.subset(n, k).nonzero()[0].tolist()) == oracle.subset(n, k)
        assert sampler.below(1 << 64) == oracle.below(1 << 64)


@pytest.mark.parametrize("n, seed", [(4, 0), (6, MASK)])
def test_oracle_replays_the_key_lemma_draws(n, seed):
    """Per sampled family its size, then its members if the size is
    nonzero; then the stress set's second center; then c1, c2, r1, r2
    for each union of two balls."""
    trials, max_size = 24, 1 << (n - 1)
    draw = OracleSampler(seed)
    families = []
    for t in range(trials):
        size = draw.below(max_size + 1)
        families.append((f"sampled #{t}", draw.subset(n, size) if size else set()))
    center2 = draw.below(1 << n)
    for radius in range(n + 1):
        if len(gamma_oracle({0}, n, radius)) > max_size:
            break
        families += [(f"ball r={radius} c={c}", gamma_oracle({c}, n, radius))
                     for c in (0, center2)]
    families.append(("half-space x0=0", set(range(0, 1 << n, 2))))
    for t in range(3):
        c1, c2 = draw.below(1 << n), draw.below(1 << n)
        r1, r2 = draw.below(n // 3), draw.below(n // 3)
        union = gamma_oracle({c1}, n, r1) | gamma_oracle({c2}, n, r2)
        if len(union) <= max_size:
            families.append((f"union of balls #{t}", union))
    report = verify_key_lemma(n, trials, Fraction(1, 2), seed)
    assert [f["label"] for f in report["families"]] == [label for label, _ in families]
    # each row against the brute-force count, not the gamma_sizes the report ran
    counts = contained_counts_oracle([members for _, members in families], n)
    for fam, (_, members), exact in zip(report["families"], families, counts):
        assert fam["size"] == len(members)
        assert [row["exact"] for row in fam["rows"]] == [Fraction(c, 1 << n) for c in exact]
    check_keylemma_report(report)


def numpy_random_names(tree: ast.AST) -> set[str]:
    """The names under np.random or numpy.random that a module spells
    out or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(ast.unparse(node))
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in names if name.split(".")[:2] in (["np", "random"], ["numpy", "random"])}


def test_the_sampler_is_the_only_randomness_source():
    """No module but rng names numpy's random module, and rng names only
    its Philox bit generator, not a Generator, whose draws numpy does not
    promise to keep across versions."""
    named = {path.name: names for path in Path(hamext.__file__).parent.glob("*.py")
             if (names := numpy_random_names(ast.parse(path.read_text())))}
    assert named == {"rng.py": {"np.random", "np.random.Philox"}}
    assert not hasattr(rng, "generator")


# Each rule spelled out in one place: its text, and the module, or the
# function (or functions) of one, that alone may hold it
ONE_DEFINITION = {
    "lil-scale": ("2.0 * n * lnln(n)", "budgets.py", "lil_scale"),
    "block-lowest-k": ("(1 << (m - 1)) + 1", "stats.py", None),
    "odd-trim": ("% 2 else e - 1", "extractor.py", "odd_cores"),
    "ball-verdict": ('startswith("ball ")', "keylemma.py", "non_tight_balls"),
    "lil-checkpoints": ("1 << j for j in range(4", "extractor.py", "psi_deviation"),
    "core-words": ("(1 << e) - (1 << s)", "kernels.py", "core_words"),
    "resource-refusal": ("raise ResourceError", "bits.py", "read_index"),
    "overflow-catch": ("OverflowError", "bits.py", ("as_bits", "_real")),
    "neighborhood-count": ("kernels.distance_to_set(", "cube.py", "gamma_sizes"),
    "corrupt-report": ('"budget_exceeded":', "cli.py", "cmd_corrupt"),
    "middle-index": ("(n - 1) // 2", "cube.py", None),
}


def innermost(tree: ast.AST, lineno: int) -> str | None:
    """The name of the innermost function of tree around line lineno, or
    None outside every function."""
    around = [node for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.lineno <= lineno <= node.end_lineno]
    return max(around, key=lambda f: f.lineno).name if around else None


def spelled_out(text: str) -> set[tuple[str, str | None]]:
    """(module, innermost function around it or None) for each line of the
    hamext package that holds text."""
    found = set()
    for path in Path(hamext.__file__).parent.glob("*.py"):
        source = path.read_text()
        tree = ast.parse(source)
        for lineno, line in enumerate(source.splitlines(), 1):
            if text in line:
                found.add((path.name, innermost(tree, lineno)))
    return found


@pytest.mark.parametrize("text, module, function", ONE_DEFINITION.values(), ids=ONE_DEFINITION)
def test_each_rule_has_one_definition(text, module, function):
    found = spelled_out(text)
    if function is None:
        assert {m for m, _ in found} == {module}
    else:
        functions = (function,) if isinstance(function, str) else function
        assert found == {(module, f) for f in functions}


def names_read(tree: ast.AST) -> set[str]:
    """The names a tree loads, the attributes it reads and the names it
    imports; a definition alone reads nothing."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_reader():
    """Each name the package exports is read by a module of the package
    other than __init__, or by the benchmark in perfbench/: a function
    that only tests call is an oracle for tests/, not an export. A
    module-level import inside the package only binds the name for the
    module's own reads, and a read inside the definition of an export
    counts only once that export is read itself, so an export read only
    by unread exports is unread."""
    package = Path(hamext.__file__).parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    read = set().union(*(names_read(ast.parse(p.read_text()))
                         for p in (package.parents[1] / "perfbench").glob("*.py")))
    inside = {}  # export -> the names its top-level definition reads
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "name", None) in exported:
                inside[node.name] = names_read(node)
            else:
                read |= names_read(node)
    while (more := set().union(*(inside[name] for name in read & inside.keys())) - read):
        read |= more
    assert sorted(exported - read) == []


def test_every_refusal_kind_is_documented():
    """Each HamextError subclass that hamext.errors defines is named in
    README.md, which says when each is raised."""
    readme = (Path(hamext.__file__).parents[2] / "README.md").read_text()
    kinds = [name for name, value in vars(errors).items() if isinstance(value, type)
             and issubclass(value, errors.HamextError) and value is not errors.HamextError]
    assert [name for name in kinds if f"`{name}`" not in readme] == []


def calls(tree: ast.AST) -> set[str]:
    """The names a tree calls, bare (f(...)) or as an attribute (m.f(...))."""
    return {f.id if isinstance(f, ast.Name) else f.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(f := node.func, (ast.Name, ast.Attribute))}


@cache
def parsed_tests() -> dict[str, ast.Module]:
    """Every module of tests/, by file name, parsed once."""
    return {path.name: ast.parse(path.read_text()) for path in Path(__file__).parent.glob("*.py")}


def test_every_reference_has_a_comparison():
    """Each function and class that tests/oracles.py defines is defined
    nowhere else in tests/, no function, method or class outside it but a
    test is named *_oracle, and each is called, by name or as
    oracles.<name>, by a test module or by a reference that is: a
    reference whose comparisons are deleted goes with them."""
    modules = parsed_tests()
    defined = {node.name: node for node in modules["oracles.py"].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted((name, node.name) for name, tree in modules.items() if name != "oracles.py"
                  for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and (node.name in defined or node.name.endswith("_oracle")
                       and not node.name.startswith("test_"))) == []
    called = set().union(*(calls(tree) for name, tree in modules.items()
                           if name.startswith("test_")))
    while more := set().union(*(calls(defined[name]) for name in called & defined.keys())) - called:
        called |= more
    assert sorted(defined.keys() - called) == []


# Each claim's one reference, by a spelling of it that no other test code
# may repeat (an expression, matched by its syntax tree, so a constant in
# any base), and the module, and the function of it or None, that alone
# holds it; math.comb is read once, where the binomial row is tied to it
ONE_REFERENCE = {
    "binomial-row": ("coeff * (n - i) // (i + 1)", "oracles.py", "binomial_row"),
    "comb-tie": ("math.comb", "test_cube.py", "test_both_walks_match_comb_sum"),
    "cube-distance": ("(v ^ u).bit_count()", "oracles.py", "distance_oracle"),
    "ball-union": ("reduce(or_, subset, 0)", "oracles.py", "harper_min_oracle"),
    "majority-margin": ("2 * (word & core).bit_count()", "oracles.py", "margin"),
    "philox-multiplier-0": (hex(MULTIPLIERS[0]), "oracles.py", None),
    "philox-multiplier-1": (hex(MULTIPLIERS[1]), "oracles.py", None),
    "cdf-gap": ("normal_cdf((j - half) * scale)", "oracles.py", "cdf_gap_oracle"),
}


@pytest.mark.parametrize("spelling, module, function", ONE_REFERENCE.values(), ids=ONE_REFERENCE)
def test_each_reference_has_one_spelling(spelling, module, function):
    target = ast.parse(spelling, mode="eval").body
    assert {(name, innermost(tree, node.lineno)) for name, tree in parsed_tests().items()
            for node in ast.walk(tree)
            if type(node) is type(target) and ast.dump(node) == ast.dump(target)} == {
        (module, function)}
