"""Fuzzing ``rtcalc`` through ``cli.main`` with generated map, action and
post-Lie files, and with generated tree text.

The files are built from the builder names of the README and are well
formed, so loading them fails only on a key put in on purpose: one
misspelt or unknown key, in the top-level map, a nested map, a basis, a
``jd`` object, an ``{"on", "terms"}`` entry or a post-Lie file.  Every
run must exit 0, 1 or 2 with no traceback and no internal error; exit 1
must come from a refutation or a nonzero residual, and a file with an
unknown key must exit 2 with a message naming it.

The tree text for ``theta`` and ``graft`` is well formed (wide trees of up
to 8 children, ladders up to 600 deep) or spoilt by one misspelt label,
one unbalanced bracket or one dropped character.  Well-formed text of
modest depth must exit 0; text nested beyond the frame limit exits 2 with
the recursion message.
"""

import copy
import json
import string

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rtcalc.cli import main

# Every key that some object of a map, action or post-Lie file reads.
VOCABULARY = {
    "builder", "kind", "edge_basis", "vertex_basis", "entries", "d", "lambda",
    "max_iter", "blocks", "jd", "f", "g", "first", "second", "lam", "mu", "outer", "inner", "of",
    "coeffs", "id", "names", "A", "B", "form", "on", "terms", "generators", "edge", "vertex",
    "bracket", "triangle", "noise",
}

RAT = st.sampled_from([0, 1, -1, 2, "1/2", "-3/2"])

# Label sets: two symbol pairs, multi-indices of length 1 and 2, and the
# noise-extended multi-indices of length 1.
SYMBOLS = {"ab": (("a", ["a1", "a2"]), ("b", ["b1", "b2"])), "cd": (("c", ["c1"]), ("d", ["d1"]))}
SIGNATURES = ["ab", "cd", "mi0", "mi1", "noise0"]
DISJOINT = [("ab", "cd"), ("ab", "mi0"), ("mi0", "mi1"), ("cd", "noise0")]


def basis(sig, side):
    if sig in SYMBOLS:
        basis_id, names = SYMBOLS[sig][side == "vertex"]
        return {"kind": "symbols", "id": basis_id, "names": names}
    if sig == "noise0":
        return {"kind": "multiindex_noise", "d": 0}
    return {"kind": "multiindex", "d": int(sig[-1])}


def bases(sig):
    return {"edge_basis": basis(sig, "edge"), "vertex_basis": basis(sig, "vertex")}


def matrix(k):
    row = st.lists(RAT, min_size=k, max_size=k)
    return st.lists(row, min_size=k, max_size=k)


def entries(on, term, min_size=0):
    """``{"on", "terms"}`` entries whose pairs and terms come from the given strategies."""
    entry = st.fixed_dictionaries({"on": on.map(list), "terms": st.lists(term.map(list), max_size=2)})
    return st.lists(entry, min_size=min_size, max_size=3)


def table(sig, min_entries=0):
    (_, es), (_, vs) = SYMBOLS[sig]
    e, v = st.sampled_from(es), st.sampled_from(vs)
    return entries(st.tuples(e, v), st.tuples(RAT, e, v), min_entries).map(
        lambda rows: {"builder": "table", **bases(sig), "entries": rows}
    )


# A 'blocks' map on "ab" given by a 'jd' object: 2 x 2 blocks of size 2.
JD_BLOCKS = st.builds(
    lambda A, B, form: {"builder": "blocks", "jd": {"A": A, "B": B, "form": form}, **bases("ab")},
    matrix(2), matrix(2), st.sampled_from("JD"),
)


@st.composite
def leaf(draw, sig):
    """A map without a nested map, on the label sets ``sig``."""
    if sig in SYMBOLS:
        extra = ["table", "tensor", "blocks"]
    elif sig == "noise0":
        extra = ["noise_extend"]
    else:
        extra = ["phi_lambda", "partial_lambda", "phi_lambda_exp"]
    builder = draw(st.sampled_from(["identity", "zero", *extra]))
    if builder in ("identity", "zero"):
        return {"builder": builder, **bases(sig)}
    if builder == "table":
        return draw(table(sig))
    if sig not in SYMBOLS:
        d = int(sig[-1])
        obj = {"builder": builder, "d": d}
        if draw(st.booleans()):
            obj["lambda"] = draw(st.lists(RAT, min_size=d + 1, max_size=d + 1))
        return obj
    (_, es), (_, vs) = SYMBOLS[sig]
    m, n = len(es), len(vs)
    if builder == "tensor":
        return {"builder": "tensor", **bases(sig), "f": draw(matrix(m)), "g": draw(matrix(n))}
    if sig == "ab" and draw(st.booleans()):
        return draw(JD_BLOCKS)
    grid = st.lists(st.lists(matrix(n), min_size=m, max_size=m), min_size=m, max_size=m)
    return {"builder": "blocks", "blocks": draw(grid), **bases(sig)}


def map_on(sig, depth):
    """A map on the label sets ``sig``, nested at most ``depth`` deep."""
    if depth == 0:
        return leaf(sig)
    inner = map_on(sig, depth - 1)
    options = [
        leaf(sig),
        st.builds(lambda o, i: {"builder": "compose", "outer": o, "inner": i}, inner, inner),
        st.builds(lambda x, k: {"builder": "exp", "of": x, **k}, inner, st.sampled_from([{}, {"max_iter": 4}])),
        st.builds(lambda x, cs: {"builder": "polynomial", "of": x, "coeffs": cs}, inner, st.lists(RAT, max_size=3)),
    ]
    if sig in SYMBOLS:
        options.append(st.builds(lambda x: {"builder": "transpose", "of": x}, inner))
    return st.one_of(options)


def direct_sum(first, second):
    return st.builds(
        lambda f, s, lam, mu: {"builder": "direct_sum", "first": f, "second": s, "lam": lam, "mu": mu},
        first, second, RAT, RAT,
    )


MAPS = st.one_of(
    st.sampled_from(SIGNATURES).flatmap(lambda sig: map_on(sig, 2)),
    st.sampled_from(DISJOINT).flatmap(lambda pair: direct_sum(map_on(pair[0], 1), map_on(pair[1], 1))),
)


def nested(inner, sig):
    """``inner``, a map on the symbol pair ``sig``, alone or one level inside another map."""
    other = map_on(sig, 1)
    return st.one_of(
        inner,
        st.builds(lambda x, y: {"builder": "compose", "outer": x, "inner": y}, inner, other),
        st.builds(lambda x, y: {"builder": "compose", "outer": y, "inner": x}, inner, other),
        st.builds(lambda x: {"builder": "transpose", "of": x}, inner),
        direct_sum(map_on("cd" if sig == "ab" else "ab", 1), inner),
    )


GENERATORS = st.sampled_from([["g"], ["g", "h"]])


def structure_constants(gens, key, min_size=0):
    """Entries for 'bracket' or 'triangle' that meet the post-Lie axioms: all
    zero, except that one generator may act on itself by any multiple."""
    g = st.sampled_from(gens)
    coefficient = RAT if key == "triangle" and len(gens) == 1 else st.just(0)
    return entries(st.tuples(g, g), st.tuples(coefficient, g), min_size)


@st.composite
def psi_tables(draw, gens, with_entries=False):
    """A 'psi_tables' action on "ab"; ``with_entries`` makes its 'edge' list nonempty."""
    g, (_, es), (_, vs) = st.sampled_from(gens), *SYMBOLS["ab"]
    obj = {"builder": "psi_tables", "generators": gens, **bases("ab")}
    for key, labels in (("edge", es), ("vertex", vs)):
        if (with_entries and key == "edge") or draw(st.booleans()):
            label = st.sampled_from(labels)
            obj[key] = draw(entries(st.tuples(g, label), st.tuples(RAT, label), with_entries))
    for key in ("bracket", "triangle"):
        if draw(st.booleans()):
            obj[key] = draw(structure_constants(gens, key))
    return obj


@st.composite
def postlie_file(draw, gens, with_entries=False):
    """A post-Lie file; ``with_entries`` makes its 'bracket' list nonempty."""
    obj = {"generators": gens}
    for key in ("bracket", "triangle"):
        if (with_entries and key == "bracket") or draw(st.booleans()):
            obj[key] = draw(structure_constants(gens, key, with_entries))
    return obj


def misspell(word, at, how):
    at %= len(word)
    if how == "drop":
        return word[:at] + word[at + 1 :]
    if how == "double":
        return word[: at + 1] + word[at:]
    if how == "swapcase":
        return word[:at] + word[at].swapcase() + word[at + 1 :]
    return word + "s"


UNKNOWN_KEYS = st.one_of(
    st.builds(
        misspell,
        st.sampled_from(sorted(VOCABULARY)),
        st.integers(0, 20),
        st.sampled_from(["drop", "double", "swapcase", "plural"]),
    ),
    st.text(string.ascii_letters + "_", min_size=1, max_size=8),
).filter(lambda key: key not in VOCABULARY)

ANY_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.text(max_size=3), st.just([]))


def objects(obj):
    """Every JSON object in ``obj``, ``obj`` itself included."""
    if isinstance(obj, dict):
        yield obj
        for value in obj.values():
            yield from objects(value)
    elif isinstance(obj, list):
        for item in obj:
            yield from objects(item)


def role(obj):
    """The kind of a file's object, by the key that marks it: a map or an
    action ("builder"), a basis ("kind"), a 'jd' object ("form"), an entry
    ("on") or a post-Lie file ("generators")."""
    return next(key for key in ("builder", "kind", "form", "on", "generators") if key in obj)


@st.composite
def spoilt(draw, obj, kind):
    """A copy of ``obj`` with an unknown key in one of its objects of ``kind``, and that key."""
    obj = copy.deepcopy(obj)
    target = draw(st.sampled_from([o for o in objects(obj) if role(o) == kind]))
    key = draw(UNKNOWN_KEYS)
    target[key] = draw(ANY_VALUE)
    return obj, key


def run_cli(capsys, tmp_path, argv, files):
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    code = main([str(tmp_path / a) if a in files else a for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    assert "internal error" not in err
    return code, out, err


def assert_refused(code, out, err, key):
    assert (code, out) == (2, "")
    assert err.startswith("rtcalc: error:") and f"does not read {key!r}" in err


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

# The maps to spoil for each kind of object: any map for a map, one with a
# basis, one with a 'jd' object, one with an entry.
MAPS_WITH = {
    "builder": MAPS,
    "kind": MAPS.filter(lambda phi: any(role(o) == "kind" for o in objects(phi))),
    "form": nested(JD_BLOCKS, "ab"),
    "on": st.sampled_from(list(SYMBOLS)).flatmap(lambda sig: nested(table(sig, 1), sig)),
}


def map_case(kind):
    if kind is None:
        return MAPS.map(lambda phi: (phi, None))
    return MAPS_WITH[kind].flatmap(lambda phi: spoilt(phi, kind))


@FUZZ
@given(st.sampled_from([None, *MAPS_WITH]).flatmap(map_case))
def test_check_compat_on_generated_map_files(tmp_path, capsys, case):
    phi, key = case
    code, out, err = run_cli(capsys, tmp_path, ["check-compat", "--phi", "phi.json", "--bound", "1"], {"phi.json": phi})
    if key is not None:
        assert_refused(code, out, err, key)
    elif code == 1:
        assert out.startswith("Refuted")


# Where to put the unknown key: (file, kind of object), or None.
SPOIL_AT = [None, ("psi", "builder"), ("psi", "kind"), ("psi", "on"), ("postlie", "generators"), ("postlie", "on")]


@st.composite
def psi_case(draw):
    """A map, an action and perhaps a post-Lie file for ``psi-check``, one of them perhaps spoilt."""
    at = draw(st.sampled_from(SPOIL_AT))
    if at in (("psi", "kind"), ("psi", "on")) or draw(st.booleans()):
        gens = draw(GENERATORS)
        phi, psi = {"builder": "identity", **bases("ab")}, draw(psi_tables(gens, at == ("psi", "on")))
    else:
        d, noise = draw(st.integers(0, 1)), draw(st.booleans())
        phi = {"builder": "noise_extend" if noise else "phi_lambda", "d": d}
        psi = {"builder": "spde_psi", "d": d, "noise": noise}
        gens = draw(st.sampled_from([[f"X_{i}" for i in range(d + 1)], ["g"]]))
        if noise or draw(st.booleans()):
            psi["noise"] = noise
    files, key = {"phi.json": phi, "psi.json": psi}, None
    if (at and at[0] == "postlie") or draw(st.booleans()):
        files["postlie.json"] = draw(postlie_file(gens, at == ("postlie", "on")))
    if at:
        files[f"{at[0]}.json"], key = draw(spoilt(files[f"{at[0]}.json"], at[1]))
    return files, key


@FUZZ
@given(psi_case())
def test_psi_check_on_generated_action_and_postlie_files(tmp_path, capsys, case):
    files, key = case
    argv = ["psi-check", "--phi", "phi.json", "--psi", "psi.json", "--bound", "1"]
    if "postlie.json" in files:
        argv += ["--postlie", "postlie.json"]
    code, out, err = run_cli(capsys, tmp_path, argv, files)
    if key is not None:
        assert_refused(code, out, err, key)
    elif code == 1:
        assert " at gens=(" in out


# ---------------------------------------------------------------------------
# Tree text for theta and graft

# Two compatible maps and their labels: phi_lambda at d = 0 with a
# fractional coefficient, and the identity on the symbol pair "ab".
TREE_MAPS = {
    "mi": ({"builder": "phi_lambda", "d": 0, "lambda": ["1/2"]}, ["<0>", "<1>", "<2>"], ["<0>", "<1>", "<2>"]),
    "ab": ({"builder": "identity", **bases("ab")}, SYMBOLS["ab"][0][1], SYMBOLS["ab"][1][1]),
}
# Labels that no basis above has, or that belong to the other slot.
BAD_LABELS = ["<0,1>", "<>", "a3", "b0", "Xi", "*", "bb1", "a1b1", "<1"]
# Ladders deeper than this may meet the frame limit; shallower ones must not.
SAFE_DEPTH = 400
RECURSION = "rtcalc: error: recursion limit"


def trees(es, vs):
    """Tree text with up to 8 children at a vertex."""

    def grow(kids):
        return st.builds(
            lambda v, cs: f"({v}" + "".join(f" [{e}]{c}" for e, c in cs) + ")",
            st.sampled_from(vs),
            st.lists(st.tuples(st.sampled_from(es), kids), max_size=8),
        )

    return st.recursive(st.sampled_from(vs).map(lambda v: f"({v})"), grow, max_leaves=12)


def ladder(depth, e, v):
    """One chain of ``depth`` vertices labelled ``v`` joined by ``e`` edges."""
    return f"({v} [{e}]" * (depth - 1) + f"({v})" + ")" * (depth - 1)


COEFFICIENTS = st.sampled_from(["", "2*", "1/2*", "3/4 "])


@st.composite
def tree_expr(draw, es, vs):
    """A tree combination: ``(text, depth)`` with ``depth`` 0 for a generated
    combination and the ladder's depth for a ladder."""
    if draw(st.integers(0, 3)) == 0:
        # Only <0> is fixed by phi_lambda at every level, so deep ladders on
        # multi-indices keep one term.
        e, v = (es[0], vs[0]) if es[0] == "<0>" else (draw(st.sampled_from(es)), draw(st.sampled_from(vs)))
        depth = draw(st.one_of(st.integers(1, 60), st.integers(SAFE_DEPTH, 600)))
        return ladder(depth, e, v), depth
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"), COEFFICIENTS, trees(es, vs)), min_size=1, max_size=3))
    return " ".join(s + c + t for s, c, t in terms).lstrip("+"), 0


@st.composite
def spoil_text(draw, text):
    """``text`` with one label misspelt, one bracket unbalanced or one character dropped."""
    how = draw(st.sampled_from(["label", "bracket", "drop"]))
    if how == "label":
        spots = [i for i, ch in enumerate(text) if ch in "<ab"]
        i = draw(st.sampled_from(spots))
        j = text.find(">", i) + 1 if text[i] == "<" else i + 2
        return text[:i] + draw(st.sampled_from(BAD_LABELS)) + text[j:]
    if how == "bracket":
        spots = [i for i, ch in enumerate(text) if ch in "()[]"]
        i = draw(st.sampled_from(spots))
        return text[:i] + draw(st.sampled_from(["", "((", "))", "[", "]"])) + text[i + 1 :]
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + text[i + 1 :]


@st.composite
def tree_case(draw):
    """A subcommand, its map, its tree operands and whether one of them is spoilt."""
    sig = draw(st.sampled_from(sorted(TREE_MAPS)))
    phi, es, vs = TREE_MAPS[sig]
    command = draw(st.sampled_from(["theta", "graft", "graft-free"]))
    x, depth = draw(tree_expr(es, vs))
    spoilt_operand = draw(st.booleans())
    if spoilt_operand:
        x = draw(spoil_text(x))
    if command == "theta":
        return [command, "--phi", "phi.json", "x.txt"], {"phi.json": phi}, {"x.txt": x}, depth, spoilt_operand
    # The ladder goes on the left, so the grafts stay one per vertex of y.
    y = draw(trees(es, vs))
    argv = [command, "--phi", "phi.json", "--a", draw(st.sampled_from(es)), "x.txt", "y.txt"]
    return argv, {"phi.json": phi}, {"x.txt": x, "y.txt": y}, depth, spoilt_operand


THETA = ["theta", "--phi", "phi.json", "x.txt"]
PHI_MI = {"phi.json": TREE_MAPS["mi"][0]}
DEEP = ladder(600, "<0>", "<0>")


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example((THETA, PHI_MI, {"x.txt": DEEP}, 600, False))
@example((THETA, PHI_MI, {"x.txt": ladder(SAFE_DEPTH, "<0>", "<0>")}, SAFE_DEPTH, False))
@example(
    (
        ["graft", "--phi", "phi.json", "--a", "<1>", "x.txt", "y.txt"],
        PHI_MI,
        {"x.txt": DEEP, "y.txt": "(<1> [<2>](<0>))"},
        600,
        False,
    )
)
@given(tree_case())
def test_theta_and_graft_on_generated_tree_text(tmp_path, capsys, case):
    argv, files, texts, depth, spoilt_operand = case
    for name, text in texts.items():
        (tmp_path / name).write_text(text + "\n")
    argv = [str(tmp_path / a) if a in texts else a for a in argv]
    code, out, err = run_cli(capsys, tmp_path, argv, files)
    if not spoilt_operand:
        if depth <= SAFE_DEPTH:
            assert (code, err) == (0, "")
        else:
            assert code == 0 or (code == 2 and err.startswith(RECURSION))
    elif code == 2:
        assert out == "" and err.startswith("rtcalc: error:")
