import pytest

from rinfty import (build_hall_basis, ideal_quotient, metabelian_truncation,
                    orientable_relator)


def one_relator_quotient_ranks(g, upto):
    """Quotient ranks from the generating identity prod (1-t^i)^b_i = 1 - 2g t + t^2.

    Independent of the ideal/Smith pipeline: works purely with truncated
    integer power series.
    """
    target = [1, -2 * g, 1] + [0] * max(upto - 2, 0)
    series = [1] + [0] * upto
    ranks = []
    for d in range(1, upto + 1):
        b = series[d] - target[d]
        ranks.append(b)
        factor = [0] * (upto + 1)
        factor[0] = 1
        binom = 1
        for k in range(1, upto // d + 1):
            binom = binom * (b - k + 1) // k
            factor[d * k] = (-1) ** k * binom
        out = [0] * (upto + 1)
        for i, a in enumerate(series):
            if a:
                for j in range(upto - i + 1):
                    if factor[j]:
                        out[i + j] += a * factor[j]
        series = out
    return ranks


@pytest.fixture(scope="session")
def table_g2():
    """Free Lie ring on 4 generators through class 4."""
    return build_hall_basis(4, 4)


@pytest.fixture(scope="session")
def table_g3():
    """Free Lie ring on 6 generators through class 4."""
    return build_hall_basis(6, 4)


@pytest.fixture(scope="session")
def quotient_g2(table_g2):
    return ideal_quotient(table_g2, orientable_relator(2, table_g2), 4)


@pytest.fixture(scope="session")
def quotient_g3(table_g3):
    return ideal_quotient(table_g3, orientable_relator(3, table_g3), 4)


@pytest.fixture(scope="session")
def metabelian_g2(quotient_g2):
    return metabelian_truncation(quotient_g2)
