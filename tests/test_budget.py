"""The HYPERCHROM_BUDGET override: parsing and the int64 limit."""

import pytest

from hyperchrom import BudgetExceededError, InputError, budget


class TestOverride:
    def test_forms(self, monkeypatch):
        for raw, name, want in (
            ("2e8", "brute_force", 200_000_000),
            ("nb_edges=26, brute_force=1000", "nb_edges", 26),
            ("nb_edges=26, brute_force=1000", "brute_force", 1000),
            ("nb_edges=26", "exact_plk", budget.DEFAULT_CAPS["exact_plk"]),
            ("   ", "nb_edges", budget.DEFAULT_CAPS["nb_edges"]),
            ("nb_edges=3,,exact_plk=5", "exact_plk", 5),
        ):
            monkeypatch.setenv("HYPERCHROM_BUDGET", raw)
            assert budget.get_cap(name) == want

    def test_each_new_value_is_seen(self, monkeypatch):
        for cap in (10, 20, 10, 30):
            monkeypatch.setenv("HYPERCHROM_BUDGET", f"brute_force={cap}")
            assert budget.get_cap("brute_force") == cap

    @pytest.mark.parametrize(
        "raw",
        [
            "1e19",
            "brute_force=1e19",
            f"nb_edges=3,brute_force={2**63}",
            "inf",
            "1.5",
            "foo=3",
            "nb_edges=3,7",
            "brute_force=abc",
        ],
    )
    def test_refused(self, monkeypatch, raw):
        monkeypatch.setenv("HYPERCHROM_BUDGET", raw)
        with pytest.raises(InputError, match="HYPERCHROM_BUDGET"):
            budget.get_cap("nb_edges")

    def test_largest_int64_cap_accepted(self, monkeypatch):
        monkeypatch.setenv("HYPERCHROM_BUDGET", f"brute_force={2**63 - 1}")
        assert budget.get_cap("brute_force") == 2**63 - 1


class TestRefusalHint:
    def test_rerun_hint_names_an_accepted_cap(self, monkeypatch):
        monkeypatch.delenv("HYPERCHROM_BUDGET", raising=False)
        with pytest.raises(BudgetExceededError, match=f"HYPERCHROM_BUDGET=brute_force={2**63 - 1}"):
            budget.check_cap("brute_force", 2**63 - 1, "count")

    def test_no_rerun_hint_past_int64(self, monkeypatch):
        # 63^11 colorings: a cap that large is refused, so no rerun can help
        monkeypatch.delenv("HYPERCHROM_BUDGET", raising=False)
        with pytest.raises(BudgetExceededError, match="2\\^63") as info:
            budget.check_cap("brute_force", 63**11, "assignment scan")
        assert "rerun" not in str(info.value)
        assert info.value.required == 63**11
