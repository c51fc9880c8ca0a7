"""The Hypothesis strategy of bare scalar inputs, shared by the fuzz tests of every module."""

import numpy as np
from hypothesis import strategies as st

# Bare scalars of many types: huge and non-finite numbers, numpy scalars, text, None.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.complex_numbers(), st.text(max_size=3),
    st.fractions(), st.decimals(), st.sampled_from([10**400, -(10**400)]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.floats(width=32).map(np.float32),
)
