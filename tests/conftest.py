import pytest

import mucofix.cli
import mucofix.genfun
import mucofix.lattice
import mucofix.solvers
import mucofix.verifier
from mucofix import MutualPair, chain, diamond


@pytest.fixture
def monotone_scans(monkeypatch):
    'The LatticeFn of every monotone_witness call, through any module that binds it.'
    calls = []
    real = mucofix.genfun.monotone_witness

    def counting(fn):
        calls.append(fn)
        return real(fn)

    for module in (mucofix.genfun, mucofix.solvers, mucofix.verifier, mucofix.cli):
        if getattr(module, "monotone_witness", None) is real:
            monkeypatch.setattr(module, "monotone_witness", counting)
    return calls


@pytest.fixture
def bound_searches(monkeypatch):
    """The table, "join" or "meet", that every bound search builds, eager
    or waiting. A poset's order owns its memory (see lattice._frozen), so
    a join search reads an order itself and a meet search reads a view of
    one, its transpose."""
    sides = []
    real = mucofix.lattice._bound_search

    def recording(order):
        if order.base is None:
            sides.append("join")
        else:
            assert (order == order.base.T).all()
            sides.append("meet")
        return real(order)

    monkeypatch.setattr(mucofix.lattice, "_bound_search", recording)
    return sides


@pytest.fixture
def c2():
    return chain(2)


@pytest.fixture
def c3():
    return chain(3)


@pytest.fixture
def d4():
    return diamond()


@pytest.fixture
def id2(c2):
    'Identity in both directions on the two-chain.'
    return MutualPair(c2, c2, (0, 1), (0, 1))


@pytest.fixture
def k1(c2):
    'Forward identity, constant-top back; least pair is (1, 1).'
    return MutualPair(c2, c2, (0, 1), (1, 1))


@pytest.fixture
def swap(d4):
    'Swaps the two atoms of the diamond in both directions.'
    return MutualPair(d4, d4, (0, 2, 1, 3), (0, 2, 1, 3))


@pytest.fixture
def cb2(c2):
    'Constant bottom both ways; every point of P sits in the fiber at 0.'
    return MutualPair(c2, c2, (0, 0), (0, 0))
