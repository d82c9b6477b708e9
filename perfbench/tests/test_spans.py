from perfbench.spans import Span, Tracer, summarize


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 1.0
        traced_leaf()

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    by_name, by_parent = tracer.summarize()
    assert by_name["outer"].total == 9.0
    assert by_name["outer"].self_time == 3.0
    assert by_name["middle"].total == 6.0
    assert by_name["middle"].self_time == 2.0
    assert by_name["leaf"].calls == 2
    assert by_name["leaf"].self_time == 4.0
    assert by_parent[("leaf", "middle")].calls == 2
    assert by_parent[("outer", "")].calls == 1


def test_overlapping_children_are_not_counted_twice():
    spans = [
        Span(1, 0, "parent", 0.0, 10.0, 0),
        Span(2, 1, "child", 1.0, 4.0, 0),
        Span(3, 1, "child", 3.0, 6.0, 0),
        Span(4, 1, "child", 8.0, 12.0, 0),  # runs past its parent
    ]
    by_name, _ = summarize(spans)
    assert by_name["parent"].self_time == 10.0 - 5.0 - 2.0
    assert by_name["child"].calls == 3


def test_items_and_suspension():
    tracer = Tracer()
    batch = tracer.wrap("batch", lambda keys: len(keys),
                        items=lambda keys: len(keys))
    batch([1, 2, 3])
    with tracer.suspended():
        batch([1, 2])
    by_name, _ = tracer.summarize()
    assert by_name["batch"].calls == 1
    assert by_name["batch"].items == 3


class Base:
    def inherited(self):
        return "base"


class Child(Base):
    def own(self):
        return "own"


def test_patch_restores_own_and_inherited_methods():
    tracer = Tracer()
    own, inherited = Child.own, "inherited" in vars(Child)
    tracer.patch(Child, "own", "own")
    tracer.patch(Child, "inherited", "inherited")
    assert Child().own() == "own" and Child().inherited() == "base"
    assert len(tracer.spans) == 2
    tracer.unpatch_all()
    assert Child.own is own
    assert ("inherited" in vars(Child)) == inherited
