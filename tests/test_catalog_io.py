"""Catalog contents and the JSON round trip for every serializable kind."""

import json

import pytest

import wbk
from wbk import ParseError, UnknownName
from wbk.cli import main
from wbk.solutions import is_bijective


def test_catalog_list_shape():
    entries = wbk.catalog_list()
    assert len(entries) == 17
    assert entries == sorted(entries)
    kinds = {k for _, k, _ in entries}
    assert kinds == {"group", "skew_brace", "dual_weak_brace", "spec"}
    names = [n for n, _, _ in entries]
    assert "z6_exotic" in names and "c3_sym3" in names


def test_catalog_get_unknown():
    with pytest.raises(UnknownName):
        wbk.catalog_get("nope")


def test_catalog_partitions():
    assert len(wbk.catalog_braces()) == 7
    assert len(wbk.catalog_specs()) == 2
    assert len(wbk.catalog_structures()) == 11
    names = [n for n, _ in wbk.catalog_structures()]
    assert names == sorted(names)


def round_trip(x, tmp_path):
    path = tmp_path / "obj.json"
    path.write_text(wbk.dumps(x), encoding="utf-8")
    return wbk.load(str(path))


def test_round_trip_group(tmp_path):
    g = wbk.catalog_get("sym3")
    assert wbk.from_obj(wbk.to_obj(g)) == g
    assert round_trip(g, tmp_path) == g


def test_round_trip_semilattice(tmp_path):
    y = wbk.validate_semilattice([[0, 1, 2], [1, 1, 2], [2, 2, 2]])
    assert round_trip(y, tmp_path) == y


def test_round_trip_skew_brace(tmp_path):
    b = wbk.catalog_get("z6_exotic")
    assert round_trip(b, tmp_path) == b
    obj = wbk.to_obj(b)
    assert obj["kind"] == "skew_brace" and obj["order"] == 6


def test_round_trip_dual_weak_brace(tmp_path, c3_sym3):
    assert round_trip(c3_sym3, tmp_path) == c3_sym3


def test_round_trip_spec(tmp_path):
    spec = wbk.catalog_get("c3_sym3")
    again = round_trip(spec, tmp_path)
    assert again == spec
    obj = wbk.to_obj(spec)
    assert set(obj["homs"]) == {"0>1"}


def test_round_trip_solution(tmp_path, z6, c3_sym3, c2_c4):
    # brace and glued solutions, a table that is not bijective, the identity
    flat = wbk.solution_table(3, lambda a, b: (a * b % 3, 0))
    for r in (*map(wbk.solution_of, (z6, c3_sym3, c2_c4)), flat, wbk.identity_solution(5)):
        text = wbk.dumps(r)
        assert round_trip(r, tmp_path) == r
        assert wbk.dumps(wbk.load(str(tmp_path / "obj.json"))) == text
        cells = json.loads(text)["map"]
        assert all(tuple(cells[a][b]) == r.apply(a, b) for a in range(r.order) for b in range(r.order))
    assert not is_bijective(flat)


def test_dumps_is_canonical(z6):
    text = wbk.dumps(z6)
    assert text.endswith("\n")
    obj = json.loads(text)
    assert wbk.dumps(wbk.from_obj(obj)) == text


def test_load_catalog_prefix():
    b = wbk.load("catalog:z6_exotic")
    assert b == wbk.catalog_get("z6_exotic")
    with pytest.raises(UnknownName):
        wbk.load("catalog:nope")


def test_load_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("nonsense", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        wbk.load(str(path))
    assert "line 1" in str(exc.value)


def test_load_missing_file():
    with pytest.raises(ParseError):
        wbk.load("/no/such/file.json")


def test_load_invalid_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"kind": "gr\xffoup"}')
    with pytest.raises(ParseError) as exc:
        wbk.load(str(path))
    assert "utf-8" in str(exc.value)


def test_load_deeply_nested(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        wbk.load(str(path))
    assert "recursion" in str(exc.value)


def test_from_obj_rejections():
    with pytest.raises(ParseError):
        wbk.from_obj([1, 2, 3])
    with pytest.raises(ParseError) as exc:
        wbk.from_obj({"kind": "group"})
    assert "op" in str(exc.value)
    with pytest.raises(ParseError):
        wbk.from_obj({"kind": "widget"})


def test_from_obj_validates_tables():
    bad = {"kind": "group", "order": 2, "op": [[0, 1], [1, 1]]}
    with pytest.raises(wbk.ValidationError):
        wbk.from_obj(bad)


def test_solution_obj_checks():
    with pytest.raises(ParseError):
        wbk.from_obj({"kind": "solution", "order": 2, "map": [[[0, 0]]]})
    with pytest.raises(ParseError):
        wbk.from_obj(
            {"kind": "solution", "order": 1, "map": [[[0, 5]]]}
        )


def test_solution_file_with_a_short_row_exits_2(tmp_path, capsys):
    path = tmp_path / "solution.json"
    path.write_text(json.dumps({"kind": "solution", "order": 2, "map": [[[0, 0], [1, 1]], [[0, 0]]]}),
                    encoding="utf-8")
    assert main(["braid", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: solution table is not square\n")


def test_solution_obj_rejects_bools(tmp_path, capsys):
    # JSON true loads as True, which equals and hashes as 1: only a type test keeps it out
    for obj in (
        {"kind": "solution", "order": True, "map": [[[0, 0]]]},
        {"kind": "solution", "order": 2, "map": [[[0, 0], [True, 0]], [[1, 1], [0, 1]]]},
    ):
        with pytest.raises(ParseError):
            wbk.from_obj(obj)
        path = tmp_path / "solution.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_spec_obj_checks():
    spec_obj = wbk.to_obj(wbk.catalog_get("c3_sym3"))
    broken = json.loads(json.dumps(spec_obj))
    del broken["braces"]["1"]
    with pytest.raises(ParseError):
        wbk.from_obj(broken)
    broken = json.loads(json.dumps(spec_obj))
    broken["homs"] = {"0-1": [0, 3, 4]}
    with pytest.raises(ParseError):
        wbk.from_obj(broken)


def test_spec_obj_checks_nested_kinds(tmp_path, capsys):
    # a nested kind may be left out; when present it must name the table
    spec_obj = wbk.to_obj(wbk.catalog_get("c3_sym3"))
    bare = json.loads(json.dumps(spec_obj))
    del bare["semilattice"]["kind"]
    del bare["braces"]["1"]["kind"]
    assert wbk.from_obj(bare) == wbk.from_obj(spec_obj)
    for field, kind in (("semilattice", "group"), ("0", "solution"), ("1", "dual_weak_brace")):
        broken = json.loads(json.dumps(spec_obj))
        (broken if field == "semilattice" else broken["braces"])[field]["kind"] = kind
        with pytest.raises(ParseError) as exc:
            wbk.from_obj(broken)
        assert repr(field) in str(exc.value) and repr(kind) in str(exc.value)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err


def test_from_obj_shape_errors_are_parse_errors():
    with pytest.raises(ParseError):
        wbk.from_obj({"kind": "group", "op": 5})
    with pytest.raises(ParseError):
        wbk.from_obj({"kind": "skew_brace", "add": [[0]], "mul": "x"})
    spec_obj = wbk.to_obj(wbk.catalog_get("c3_sym3"))
    spec_obj["homs"]["0>1"] = 7
    with pytest.raises(ParseError) as exc:
        wbk.from_obj(spec_obj)
    assert "0>1" in str(exc.value)
    # hom keys are canonical decimal pairs; another spelling of 0>1, alone
    # or beside the canonical one, is a parse error
    for key in ("00>1", "0_0>1", " 0>1", "+0>1", "0> 1", "0>01", "-0>1", "-1>0", "0>1>2"):
        for keep in (False, True):
            key_obj = wbk.to_obj(wbk.catalog_get("c3_sym3"))
            f = key_obj["homs"]["0>1"] if keep else key_obj["homs"].pop("0>1")
            key_obj["homs"][key] = f
            with pytest.raises(ParseError) as exc:
                wbk.from_obj(key_obj)
            assert repr(key) in str(exc.value)
    # a brace under a key that names no semilattice element
    extra_obj = wbk.to_obj(wbk.catalog_get("c3_sym3"))
    extra_obj["braces"]["5"] = extra_obj["braces"]["0"]
    with pytest.raises(ParseError) as exc:
        wbk.from_obj(extra_obj)
    assert "'5'" in str(exc.value)
    # a declared order or size that disagrees with the table
    with pytest.raises(ParseError):
        wbk.from_obj({"kind": "group", "order": 5, "op": [[0, 1], [1, 0]]})
    with pytest.raises(ParseError):
        wbk.from_obj({"kind": "semilattice", "size": 1, "meet": [[0, 1], [1, 1]]})
    with pytest.raises(ParseError):
        wbk.from_obj({"kind": "skew_brace", "order": 2, "add": [[0]], "mul": [[0]]})
    with pytest.raises(ParseError):
        wbk.from_obj({"kind": "dual_weak_brace", "order": "1", "add": [[0]], "mul": [[0]]})
    # without the field the table alone decides
    assert wbk.from_obj({"kind": "group", "op": [[0, 1], [1, 0]]}).order == 2
    # bad entries inside well-shaped lists still reach the validators
    with pytest.raises(wbk.ValidationError) as exc:
        wbk.from_obj({"kind": "group", "op": [[0, 5], [1, 0]]})
    assert exc.value.law == "not_closed"
    spec_obj["homs"]["0>1"] = ["a", 3, 4]
    with pytest.raises(wbk.ValidationError) as exc:
        wbk.from_obj(spec_obj)
    assert exc.value.law == "not_a_hom" and exc.value.witness == ((0, 1), None)
