"""The package's public names."""

import queryfilter


def test_every_exported_name_resolves_once():
    assert len(queryfilter.__all__) == len(set(queryfilter.__all__))
    missing = [name for name in queryfilter.__all__ if not hasattr(queryfilter, name)]
    assert missing == []
