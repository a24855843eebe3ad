"""Known-bad fixture: unbalanced paired mutations."""

class BadGauge:
    def __init__(self):
        self._waiting = 0

    def enter(self):
        self._waiting += 1  # no finally-guarded decrement on this path
        self.work()

    def leave(self):
        self._waiting -= 1

    def work(self):
        pass


class BadPool:
    def take(self):
        return self._free.get(timeout=1)  # no finally-guarded .put() anywhere
