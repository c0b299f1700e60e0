import random

import pytest

from torcode.betasym import (
    InadmissibleWordError,
    SymWord,
    adic_step,
    canonicalize_identified,
    compactum,
    compactum_for,
    derive_compactum,
    eff_value,
    factor_admissible_lex,
    greedy_word,
    is_admissible,
    is_homoclinic_word,
    make_word,
    normalize,
    parry_expansion,
    reverse_map,
    u_word,
    value,
    word_add,
    word_from_eff_value,
    word_from_text,
    word_neg,
    word_sub,
    zero_word,
)
from torcode.qfield import QuadExt, dominant_eigenvalue

from helpers import power_sum, power_sum_eff_value, power_sum_value


def lam_of(r, sigma):
    return dominant_eigenvalue(r, sigma)


def random_finite_word(rng, r, sigma, span=8):
    digits = [rng.randrange(0, 2 * r + 1) for _ in range(rng.randrange(1, span))]
    return normalize(digits, rng.randrange(-4, 5), r, sigma)


class TestParry:
    def test_fibonacci(self):
        pd = parry_expansion(1, -1)
        assert pd.d1_head == (1, 1) and pd.d1_period == ()
        assert pd.quasi_greedy_period == (1, 0)

    def test_markov_general(self):
        for r in range(1, 7):
            pd = parry_expansion(r, -1)
            assert pd.d1_head == (r, 1) and pd.d1_period == ()

    def test_sofic_general(self):
        for r in range(3, 7):
            pd = parry_expansion(r, 1)
            assert pd.d1_head == (r - 1,) and pd.d1_period == (r - 2,)


class TestDeriveCompactum:
    def test_markov_rule(self):
        c = derive_compactum(1, -1)
        assert c.kind == "markov" and c.digit_max == 1

    def test_markov_r5(self):
        c = derive_compactum(5, -1)
        assert c.kind == "markov" and c.digit_max == 5

    def test_sofic_r3(self):
        c = derive_compactum(3, 1)
        assert c.kind == "sofic" and c.digit_max == 2

    @pytest.mark.parametrize("r,sigma", [(r, -1) for r in range(1, 7)] + [(r, 1) for r in range(3, 7)])
    def test_lex_oracle_agreement(self, r, sigma):
        # derive_compactum itself cross-checks; spot-check the oracle surface here
        comp = derive_compactum(r, sigma)
        rng = random.Random(r * 10 + sigma)
        for _ in range(200):
            seq = [rng.randrange(0, comp.digit_max + 2) for _ in range(rng.randrange(1, 7))]
            lex = factor_admissible_lex(seq, r, sigma)
            w_ok = True
            try:
                make_word(comp.kind, r, 0, seq)
            except InadmissibleWordError:
                w_ok = False
            assert lex == w_ok


class TestAdmissibility:
    def test_markov_examples(self):
        assert is_admissible(make_word("markov", 1, 0, (1, 0, 1), check=False))
        with pytest.raises(InadmissibleWordError):
            make_word("markov", 1, 0, (1, 1))

    def test_sofic_forbidden_factor(self):
        with pytest.raises(InadmissibleWordError):
            make_word("sofic", 4, 0, (3, 2, 3))
        with pytest.raises(InadmissibleWordError):
            make_word("sofic", 4, 0, (3, 2, 2, 2, 3))
        assert is_admissible(make_word("sofic", 4, 0, (3, 2, 2, 1, 3), check=False))

    def test_zero_word(self):
        for r, sigma in [(1, -1), (3, 1)]:
            assert is_admissible(zero_word(r, sigma))

    def test_tail_seams(self):
        # core ending in r cannot meet an alternating right tail
        with pytest.raises(InadmissibleWordError):
            make_word("markov", 2, 0, (1, 2), right_tail="alt_r0")
        assert is_admissible(make_word("markov", 2, 0, (1,), right_tail="alt_r0", check=False))

    def test_reversed_kind(self):
        w = make_word("markov_reversed", 2, 0, (2, 0, 1))
        assert is_admissible(w)
        with pytest.raises(InadmissibleWordError):
            make_word("markov_reversed", 2, 0, (1, 2))


class TestValue:
    def test_u0(self):
        assert value(u_word(0, 1, -1)) == 1

    def test_alt_tail_is_power(self):
        # tail (r, 0, r, ...) from index 1 has value 1
        for r in (1, 2, 5):
            w = make_word("markov", r, 1, (), right_tail="alt_r0")
            assert value(w) == 1

    def test_sofic_identity(self):
        # (r-1) at index 1 followed by the constant tail sums to 1
        for r in (3, 4, 6):
            w = make_word("sofic", r, 1, (r - 1,), right_tail="const_r2")
            assert value(w) == 1

    def test_left_tail_rejected(self):
        w = make_word("markov", 1, 1, (), left_tail="alt_r0")
        with pytest.raises(ValueError):
            value(w)
        assert eff_value(w) == -1


# (kind, r) pairs with r up to 50 on both signs of sigma
_VALUE_PANEL = [("markov", r) for r in (1, 2, 7, 50)] + [("markov_reversed", r) for r in (1, 3, 50)] + [
    ("sofic", r) for r in (3, 4, 11, 50)
]


def _tails(kind):
    return ("zero", "const_r2") if kind == "sofic" else ("zero", "alt_r0")


def _random_core(rng, digit_max, length, density=1.0):
    return tuple(rng.randrange(1, digit_max + 1) if rng.random() < density else 0 for _ in range(length))


class TestValueAgainstPowerSum:
    """value, eff_value and normalize against one power of lam per digit."""

    def _check(self, w):
        if w.left_tail == "zero":
            try:
                expected = power_sum_value(w)
            except ValueError:
                with pytest.raises(ValueError):
                    value(w)
            else:
                assert value(w) == expected
        else:
            with pytest.raises(ValueError):
                value(w)
        try:
            expected = power_sum_eff_value(w)
        except ValueError:
            with pytest.raises(ValueError):
                eff_value(w)
        else:
            assert eff_value(w) == expected

    @pytest.mark.parametrize("kind,r", _VALUE_PANEL)
    def test_every_tail_pair(self, kind, r):
        rng = random.Random(r * 7 + len(kind))
        digit_max = compactum(kind, r).digit_max
        for left in _tails(kind):
            for right in _tails(kind):
                for length in (0, 1, 2, 5, 33):
                    for offset in (-40, -3, 0, 1, 17):
                        self._check(SymWord(kind, r, offset, _random_core(rng, digit_max, length, 0.7), left, right))

    @pytest.mark.parametrize("kind,r", [("markov", 2), ("sofic", 3), ("markov_reversed", 1)])
    def test_dense_4096_digit_cores(self, kind, r):
        rng = random.Random(4096 + r)
        digit_max = compactum(kind, r).digit_max
        for offset in (-2100, 5):
            core = _random_core(rng, digit_max, 4096, 0.6)
            self._check(SymWord(kind, r, offset, core, "zero", "zero"))

    @pytest.mark.parametrize("kind,r", [("markov", 50), ("sofic", 50), ("markov_reversed", 50)])
    def test_sparse_4096_digit_cores(self, kind, r):
        # a handful of nonzero digits keeps the oracle fast at large r
        rng = random.Random(50 + len(kind))
        digit_max = compactum(kind, r).digit_max
        for offset in (-4000, -7, 300):
            for left in _tails(kind):
                for right in _tails(kind):
                    core = list(_random_core(rng, digit_max, 4096, 0.004))
                    core[0] = core[-1] = digit_max
                    self._check(SymWord(kind, r, offset, tuple(core), left, right))

    def test_normalize(self):
        rng = random.Random(33)
        for r, sigma in [(1, -1), (2, -1), (9, -1), (50, -1), (3, 1), (4, 1), (17, 1), (50, 1)]:
            lam = lam_of(r, sigma)
            for length in (1, 3, 12, 60):
                digits = [rng.randrange(0, 2 * r + 2) for _ in range(length)]
                offset = rng.randrange(-30, 31)
                expected = power_sum(digits, offset, lam)
                w = normalize(digits, offset, r, sigma)
                assert w == greedy_word(expected, r, sigma)
                assert value(w) == expected
        assert normalize([0] * 4096, -2000, 5, -1) == zero_word(5, -1)


class TestNormalize:
    def test_carry_relation(self):
        # r at index n plus 1 at index n+1 normalizes to a single 1 at n-1
        for r in range(1, 7):
            for n in (-2, 0, 3):
                w = normalize([r, 1], n, r, -1)
                assert w == u_word(n - 1, r, -1)

    def test_fibonacci_011_to_100(self):
        assert normalize([1, 1], 1, 1, -1) == u_word(0, 1, -1)

    def test_idempotent_on_admissible(self):
        rng = random.Random(31)
        for _ in range(50):
            r, sigma = rng.choice([(1, -1), (2, -1), (3, 1), (4, 1)])
            w = random_finite_word(rng, r, sigma)
            again = normalize(list(w.core), w.offset, r, sigma)
            assert again == w

    def test_value_preserving(self):
        rng = random.Random(32)
        for _ in range(100):
            r, sigma = rng.choice([(1, -1), (2, -1), (5, -1), (3, 1), (5, 1)])
            lam = lam_of(r, sigma)
            digits = [rng.randrange(0, 2 * r + 1) for _ in range(rng.randrange(1, 7))]
            offset = rng.randrange(-5, 6)
            w = normalize(digits, offset, r, sigma)
            assert value(w) == power_sum(digits, offset, lam)
            assert is_admissible(w)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize([1, -1], 0, 1, -1)


class TestGroupOperations:
    def test_add_zero(self):
        w = u_word(2, 1, -1)
        assert word_add(w, zero_word(1, -1)) == w

    def test_fibonacci_double(self):
        w = word_add(u_word(0, 1, -1), u_word(0, 1, -1))
        assert value(w) == 2
        assert w == make_word("markov", 1, -1, (1, 0, 0, 1))

    def test_neg_round_trip(self):
        rng = random.Random(33)
        for _ in range(40):
            r, sigma = rng.choice([(1, -1), (2, -1), (3, 1), (4, 1)])
            w = random_finite_word(rng, r, sigma)
            n = word_neg(w)
            assert is_admissible(n)
            assert eff_value(n) == -eff_value(w)
            assert word_neg(n) == canonicalize_identified(w)

    def test_sub_is_add_neg(self):
        rng = random.Random(34)
        for _ in range(30):
            r, sigma = rng.choice([(1, -1), (3, 1)])
            w1 = random_finite_word(rng, r, sigma)
            w2 = random_finite_word(rng, r, sigma)
            assert eff_value(word_sub(w1, w2)) == eff_value(w1) - eff_value(w2)

    def test_commutative_associative_values(self):
        rng = random.Random(35)
        for _ in range(30):
            r, sigma = rng.choice([(2, -1), (4, 1)])
            a, b, c = (random_finite_word(rng, r, sigma) for _ in range(3))
            assert word_add(a, b) == word_add(b, a)
            assert value(word_add(word_add(a, b), c)) == value(word_add(a, word_add(b, c)))


class TestIdentifications:
    def test_markov_glue(self):
        # (... k, r, 0, r, ...) ~ (... k+1, 0, 0, 0, ...)
        for r in (1, 2, 4):
            for k in range(0, r):
                w = make_word("markov", r, 0, (k,), right_tail="alt_r0")
                assert canonicalize_identified(w) == make_word("markov", r, 0, (k + 1,))

    def test_sofic_glue(self):
        for r in (3, 4, 5):
            for k in range(0, r - 1):
                w = make_word("sofic", r, 0, (k, r - 1), right_tail="const_r2")
                assert canonicalize_identified(w) == make_word("sofic", r, 0, (k + 1,))

    def test_markov_left_glue(self):
        # (..., r, 0, k, *) with alternating tail ~ (..., r, 0, r-1, k+1, *)
        for r in range(1, 6):
            for k in range(0, r):
                a = make_word("markov", r, 0, (k,), left_tail="alt_r0")
                b = make_word("markov", r, -1, (r - 1, k + 1), left_tail="alt_r0")
                assert eff_value(a) == eff_value(b)
                assert canonicalize_identified(a) == canonicalize_identified(b)

    def test_sofic_left_glue(self):
        # constant left tail closed by r-1 collapses to a finite word
        for r in (3, 4, 5):
            for k in range(0, r - 1):
                a = make_word("sofic", r, -1, (r - 1, k), left_tail="const_r2")
                b = make_word("sofic", r, 0, (k + 1,))
                assert eff_value(a) == eff_value(b)
                assert canonicalize_identified(a) == b

    def test_zero_word_fixed(self):
        assert canonicalize_identified(zero_word(1, -1)) == zero_word(1, -1)

    def test_doubly_alternating_is_zero(self):
        w = make_word("markov", 2, 0, (), left_tail="alt_r0", right_tail="alt_r0")
        assert eff_value(w).is_zero
        assert canonicalize_identified(w) == zero_word(2, -1)

    @pytest.mark.parametrize("r,sigma,core_max", [(1, -1, 4), (2, -1, 4), (5, -1, 3), (3, 1, 4), (5, 1, 3)])
    def test_identified_iff_equal_value(self, r, sigma, core_max):
        # over all tail-tagged admissible words with small cores: equal effective
        # value <=> same canonical representative
        comp = compactum_for(r, sigma)
        tags = ("zero", "alt_r0") if sigma == -1 else ("zero", "const_r2")
        words = []
        for lt in tags:
            for rt in tags:
                for length in range(0, core_max):
                    for digits in _all_digit_tuples(length, comp.digit_max):
                        for offset in (-1, 0, 1):
                            try:
                                w = make_word(comp.kind, r, offset, digits, lt, rt)
                            except InadmissibleWordError:
                                continue
                            words.append(w)
        by_value = {}
        for w in words:
            by_value.setdefault(eff_value(w), set()).add(canonicalize_identified(w))
        for vals in by_value.values():
            assert len(vals) == 1

    def test_relation_suite_markov(self):
        # r*u_n + u_{n+1} = u_{n-1} at the value level
        for r in range(1, 7):
            lam = lam_of(r, -1)
            for n in range(-3, 4):
                lhs = r * lam ** (-n) + lam ** (-(n + 1))
                assert lhs == lam ** (-(n - 1))

    def test_relation_suite_sofic(self):
        # u_{n-1} + u_{N+1} = (r-1)u_n + (r-2)u_{n+1} + ... + (r-2)u_{N-1} + (r-1)u_N
        for r in range(3, 7):
            lam = lam_of(r, 1)
            for n in range(-2, 2):
                # N = n degenerates to the characteristic relation
                assert r * lam ** (-n) == lam ** (-(n - 1)) + lam ** (-(n + 1))
                for N in range(n + 1, n + 8):
                    lhs = lam ** (-(n - 1)) + lam ** (-(N + 1))
                    rhs = QuadExt.zero(lam.D)
                    for j in range(n, N + 1):
                        d = (r - 1) if j in (n, N) else (r - 2)
                        rhs = rhs + d * lam ** (-j)
                    assert lhs == rhs


def _all_digit_tuples(length, digit_max):
    if length == 0:
        yield ()
        return
    for head in _all_digit_tuples(length - 1, digit_max):
        for d in range(digit_max + 1):
            yield head + (d,)


class TestAdicStep:
    def test_zero_plus_u0(self):
        assert adic_step(zero_word(1, -1), 0) == u_word(0, 1, -1)

    def test_value_increment(self):
        rng = random.Random(36)
        for _ in range(100):
            r, sigma = rng.choice([(1, -1), (3, 1), (4, -1)])
            lam = lam_of(r, sigma)
            w = random_finite_word(rng, r, sigma)
            k = rng.randrange(-4, 5)
            assert value(adic_step(w, k)) - value(w) == lam ** (-k)


class TestReverseMap:
    def test_u0_symmetric(self):
        w = u_word(0, 1, -1)
        assert reverse_map(reverse_map(w)) == w
        assert reverse_map(w).core == (1,) and reverse_map(w).offset == 0

    def test_constraint_mirror(self):
        w = make_word("markov", 2, 0, (2, 0, 1))
        rv = reverse_map(w)
        assert rv.kind == "markov_reversed"
        assert rv.core == (1, 0, 2)
        assert is_admissible(rv)

    def test_involution(self):
        rng = random.Random(37)
        for _ in range(60):
            r, sigma = rng.choice([(1, -1), (2, -1), (3, 1)])
            w = random_finite_word(rng, r, sigma)
            assert reverse_map(reverse_map(w)) == w

    def test_sofic_stays_sofic(self):
        w = make_word("sofic", 3, 0, (2, 1, 1))
        assert reverse_map(w).kind == "sofic"

    def test_tails_swap(self):
        w = make_word("markov", 2, 1, (), right_tail="alt_r0")
        rv = reverse_map(w)
        assert rv.left_tail == "alt_r0" and rv.right_tail == "zero"
        assert is_admissible(rv)
        assert reverse_map(rv) == w


class TestHomoclinicWords:
    def test_finite(self):
        assert is_homoclinic_word(u_word(0, 1, -1))

    def test_alt_tail(self):
        assert is_homoclinic_word(make_word("markov", 1, 0, (), left_tail="alt_r0"))

    def test_total_on_type(self):
        rng = random.Random(38)
        for _ in range(30):
            r, sigma = rng.choice([(2, -1), (4, 1)])
            assert is_homoclinic_word(random_finite_word(rng, r, sigma))


class TestSerialization:
    def test_text_round_trip(self):
        w = make_word("markov", 1, -1, (1, 0, 1))
        assert w.to_text() == "zero|1 0 1|zero @-1"
        assert word_from_text(w.to_text(), 1, -1) == w

    def test_tail_round_trip(self):
        w = make_word("sofic", 3, 2, (1,), right_tail="const_r2")
        assert word_from_text(w.to_text(), 3, 1) == w

    def test_malformed(self):
        with pytest.raises(ValueError):
            word_from_text("zero|1 0 1|zero", 1, -1)
        with pytest.raises(ValueError):
            word_from_text("1 0 1 @0", 1, -1)
