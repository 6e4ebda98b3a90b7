"""The package's public surface."""

import inspect

import wbk


def test_all_lists_exactly_the_public_names():
    public = {name for name, v in vars(wbk).items() if not name.startswith("_") and not inspect.ismodule(v)}
    assert len(set(wbk.__all__)) == len(wbk.__all__)
    assert sorted(wbk.__all__) == sorted(public)
