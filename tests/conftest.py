"""Suite-wide test settings: one Hypothesis profile with no deadline, since
kernel and sweep examples vary in cost, and no example database, so a run
neither writes files nor replays examples saved by an earlier run.  The
counted_calls fixture counts the calls of a flexmech function."""

import sys

import pytest
from hypothesis import settings

settings.register_profile("flexmech", deadline=None, database=None)
settings.load_profile("flexmech")


@pytest.fixture
def counted_calls(monkeypatch):
    """count(function): the list each later call of `function` appends the
    length of its first argument to.  The function is patched under its
    name in every loaded flexmech module that holds it, so the calls a
    module makes through the name it imported are counted too."""

    def count(function):
        calls = []

        def counted(first, *args):
            calls.append(len(first))
            return function(first, *args)

        name = function.__name__
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "flexmech" and \
                    getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, counted)
        return calls

    return count
