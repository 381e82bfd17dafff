import pytest

from breedsim.catalog import (
    CatalogError,
    builtin_catalog,
    builtin_entry,
    builtin_names,
    compare_report,
    find_entry,
    load_catalog,
)
from breedsim.cli import main

GOOD = """
# a comment
code six_four_two p=2 n=6 k=4 d=2 pure=1
111111|000000
000000|111111

code five_qubit p=2 n=5 k=1 d=3 pure=1
10010|01100
01001|00110
10100|00011
01010|10001
"""


def test_load_and_validate():
    entries = load_catalog(GOOD)
    assert [e.name for e in entries] == ["six_four_two", "five_qubit"]
    assert entries[0].code.distance == 2 and entries[0].pure
    assert entries[1].code.distance == 3


def test_builtin_catalog_ships_required_codes():
    names = {e.name for e in builtin_catalog()}
    assert {"six_four_two", "five_qubit", "four_two_two"} <= names


def test_builtin_entry_alone_matches_the_catalog():
    entries = builtin_catalog()
    assert builtin_names() == [e.name for e in entries]
    for entry in entries:
        alone = builtin_entry(entry.name)
        assert (alone.name, alone.d, alone.pure, alone.generator_strings) == (
            entry.name, entry.d, entry.pure, entry.generator_strings
        )
    with pytest.raises(CatalogError, match="no catalog entry named 'nonesuch' \\(known: six_four_two, "):
        builtin_entry("nonesuch")



def test_unknown_builtin_lists_every_builtin_name():
    with pytest.raises(CatalogError) as refused:
        builtin_entry("nonesuch")
    assert str(refused.value) == f"no catalog entry named 'nonesuch' (known: {', '.join(builtin_names())})"

def test_find_entry_unknown_name():
    with pytest.raises(CatalogError, match="no catalog entry"):
        find_entry(builtin_catalog(), "nonesuch")


def test_wrong_distance_claim_is_a_load_error():
    bad = GOOD.replace("d=2", "d=3")
    with pytest.raises(CatalogError, match="claims d=3"):
        load_catalog(bad)


def test_wrong_k_claim_is_a_load_error():
    bad = GOOD.replace("k=4", "k=3")
    with pytest.raises(CatalogError, match="claims k=3"):
        load_catalog(bad)


def test_parse_error_names_line():
    with pytest.raises(CatalogError, match=":1:"):
        load_catalog("not a header")


def test_missing_generators():
    with pytest.raises(CatalogError, match="ships 1 generator"):
        load_catalog("code x p=2 n=6 k=4 d=2 pure=1\n111111|000000\n")


def test_non_prime_modulus_names_the_entry(tmp_path, capsys):
    text = "code x p=4 n=2 k=1 d=1 pure=1\n10|00\n"
    with pytest.raises(CatalogError, match="^<catalog>: entry 'x': field modulus must be a prime"):
        load_catalog(text)
    path = tmp_path / "four.txt"
    path.write_text(text)
    assert main(["analyze", "--code", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: entry 'x': field modulus")


def test_non_self_orthogonal_generators():
    text = "code x p=2 n=1 k=-1 d=1 pure=1"
    # malformed k is caught by the header regex instead
    with pytest.raises(CatalogError):
        load_catalog(text)
    text = "code x p=2 n=2 k=0 d=1 pure=1\n10|00\n00|10\n"
    with pytest.raises(CatalogError, match="self-orthogonal"):
        load_catalog(text)


class TestCompareReport:
    def test_empty_catalog(self):
        assert compare_report([]) == []

    def test_worked_example_dominance(self):
        rows = compare_report(builtin_catalog())
        breeding = [
            r
            for r in rows
            if r.kind == "breeding" and r.name == "six_four_two" and r.preshared == 1
        ]
        assert len(breeding) == 1
        row = breeding[0]
        assert (row.noisy_pairs, row.gross, row.net) == (5, 4, 3)
        assert row.dominant

    def test_impure_entry_gets_its_hashing_row_only(self):
        # conversion needs purity, a hashing row only d; the pure entry still breeds
        text = (
            "code impure p=2 n=5 k=2 d=2 pure=0\n11110|00000\n00000|11110\n00000|00001\n"
            "code six_four_two p=2 n=6 k=4 d=2 pure=1\n111111|000000\n000000|111111\n"
        )
        rows = compare_report(load_catalog(text))
        assert [(r.kind, r.name, r.noisy_pairs, r.preshared, r.net, r.dominant) for r in rows] == [
            ("hashing", "impure", 5, 0, 2, False),
            ("hashing", "six_four_two", 6, 0, 4, False),
            ("breeding", "six_four_two", 5, 1, 3, True),
        ]

    def test_hashing_rows_never_flagged(self):
        for r in compare_report(builtin_catalog()):
            if r.kind == "hashing":
                assert not r.dominant

    def test_dominance_recomputed_independently(self):
        rows = compare_report(builtin_catalog())
        hashing = [r for r in rows if r.kind == "hashing"]
        for r in rows:
            if r.kind != "breeding":
                continue
            dominated = any(
                h.noisy_pairs == r.noisy_pairs and h.d >= r.d and h.net >= r.net
                for h in hashing
            )
            assert r.dominant == (not dominated)
