"""The ``test_matio_*`` tests of test_harness.py again, on the stream route.

On x87 platforms test_harness.py reads plain files through ``strtold``;
here the ``stream_route`` fixture sends every file through ``np.loadtxt``,
so each file and exact error message of those tests is checked on both.
"""

import pytest

import test_harness

globals().update({name: test for name, test in vars(test_harness).items()
                  if name.startswith("test_matio_")})
pytestmark = pytest.mark.usefixtures("stream_route")
