"""Seeded L1 violations: unguarded probe calls in the hot path."""


class EventKernel:
    def dispatch(self, when, callback):
        self.tracer.span(when, "engine", "cb")  # L1: no guard above
        callback(when)

    def dispatch_guarded(self, when, callback):
        tracer = self.tracer
        if tracer is not None:
            # A two-line comment under the guard is as far as the call
            # may sit from it (GUARD_WINDOW).
            tracer.span(when, "engine",
                        "cb")  # guarded: must NOT fire
        callback(when)
