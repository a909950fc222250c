"""Package surface: every exported name resolves."""

import sdtp


def test_every_exported_name_resolves():
    missing = [name for name in sdtp.__all__ if not hasattr(sdtp, name)]
    assert not missing
