"""Pure protocol arithmetic: quoting, fund splitting, burn rules."""
from fractions import Fraction
from itertools import combinations

from hypothesis import given, strategies as st

from leasim.coins import coins, rate_floor
from leasim.interface_enclave import (
    BURNED_STATUSES,
    InterfaceEnclave,
    Policy,
    Slot,
    quote_funds,
    split_values,
)
from leasim.service_enclave import LatencyModel


class TestQuoteFunds:
    def test_worked_example(self):
        # three accounts priced 1, 2, 3; two slots quote the two dearest
        assert quote_funds([1, 2, 3], 2) == 5

    def test_count_above_available_takes_all(self):
        assert quote_funds([4, 7], 10) == 11

    def test_empty(self):
        assert quote_funds([], 3) == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), max_size=8),
        st.integers(min_value=0, max_value=8),
    )
    def test_is_max_over_subsets(self, prices, count):
        take = min(count, len(prices))
        brute = max(
            (sum(c) for c in combinations(prices, take)), default=0
        )
        assert quote_funds(prices, count) == brute

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_quote_covers_any_execution(self, prices, count):
        """The cheapest n executed accounts never cost more than the quote."""
        n = min(count, len(prices))
        executed = sorted(prices)[:n]
        assert sum(executed) <= quote_funds(prices, count)


class TestSplitValues:
    def test_remainder_goes_to_leading_shares(self):
        assert split_values(10, 3) == [4, 3, 3]

    def test_exact_division(self):
        assert split_values(9, 3) == [3, 3, 3]

    def test_zero_amount(self):
        assert split_values(0, 4) == [0, 0, 0, 0]

    def test_rejects_no_parts(self):
        try:
            split_values(5, 0)
            assert False, "expected ValueError"
        except ValueError:
            pass

    @given(
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=1, max_value=64),
    )
    def test_partition_properties(self, amount, parts):
        values = split_values(amount, parts)
        assert sum(values) == amount
        assert len(values) == parts
        assert max(values) - min(values) <= 1
        assert values == sorted(values, reverse=True)


class TestPerSlotEconomics:
    """Frozen example: 10-coin reward at 10% deposit / 5% fee."""

    def test_deposit_and_fee_floors(self):
        reward = coins(10)
        assert rate_floor(Fraction(1, 10), reward) == coins(1)
        assert rate_floor(Fraction(1, 20), reward) == coins("0.5")

    def test_share_head_after_three_settlements(self):
        # a 100-coin share settling three such slots leaves 65.5 coins
        head = coins(100)
        cost = coins(10) + coins(1) + coins("0.5")
        for _ in range(3):
            head -= cost
        assert head == coins("65.5")

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=20))
    def test_floor_subadditivity_keeps_quote_sufficient(self, rewards):
        """Sum of per-slot floors never exceeds the floor of the sum."""
        rate = Fraction(1, 10)
        per_slot = sum(rate_floor(rate, r) for r in rewards)
        assert per_slot <= rate_floor(rate, sum(rewards))


class TestPolicy:
    def policy(self, **kw):
        defaults = dict(
            service_id="social", allowed_actions=frozenset({"upvote"}),
            price_per_action=coins(2),
        )
        defaults.update(kw)
        return Policy(**defaults)

    def test_permits_basic(self):
        assert self.policy().permits("upvote", "item1", 0.0)

    def test_rejects_unknown_action(self):
        assert not self.policy().permits("post", "item1", 0.0)

    def test_target_whitelist(self):
        p = self.policy(target_whitelist=frozenset({"item1"}))
        assert p.permits("upvote", "item1", 0.0)
        assert not p.permits("upvote", "item2", 0.0)

    def test_revert_window_refusal(self):
        p = self.policy(accepts_revert_window=False)
        assert p.permits("upvote", "item1", 0.0)
        assert not p.permits("upvote", "item1", 30.0)


def mk_slot(status, settlement_tx=None):
    return Slot(
        slot_id="c:s0000", index=0, owner_id="o1", service_id="social",
        action_kind="upvote", action_target="item1", reward=coins(2),
        deposit_share=coins("0.2"), fee=coins("0.1"), share_index=0,
        service_enclave="svc-enc:0", status=status, settlement_tx=settlement_tx,
    )


class TestBurnRule:
    def test_timeout_burns(self):
        assert "timeout" in BURNED_STATUSES
        assert InterfaceEnclave._burns(mk_slot("timeout"))

    def test_confirmed_unsettled_burns(self):
        assert InterfaceEnclave._burns(mk_slot("confirmed", settlement_tx=None))

    def test_confirmed_settled_returns(self):
        assert not InterfaceEnclave._burns(mk_slot("confirmed", settlement_tx="tx1"))

    def test_everything_else_refunds(self):
        for status in ("reverted", "failed", "skipped_inconsistent",
                       "skipped_unreachable", "cancelled"):
            assert not InterfaceEnclave._burns(mk_slot(status)), status


class TestLatencyModel:
    def test_mean_action_is_measured_pipeline_total(self):
        assert abs(LatencyModel().mean_action - 4.288) < 1e-9

    def test_fixed_model_draws_means(self):
        import random
        m = LatencyModel(model="fixed")
        rng = random.Random(1)
        assert [m.draw_step(rng, s) for s in range(1, 6)] == list(m.step_means)
        assert m.draw_snark(rng) == 4.935

    def test_normal_model_is_seed_deterministic(self):
        import random
        m = LatencyModel(model="normal")
        a = [m.draw_step(random.Random(7), s) for s in range(1, 6)]
        b = [m.draw_step(random.Random(7), s) for s in range(1, 6)]
        assert a == b
        assert a != list(m.step_means)

    def test_normal_draws_never_negative(self):
        import random
        m = LatencyModel(model="normal", step_stds=(50.0,) * 5, snark_std=50.0)
        rng = random.Random(3)
        for _ in range(200):
            assert m.draw_step(rng, 1) > 0
            assert m.draw_snark(rng) > 0
