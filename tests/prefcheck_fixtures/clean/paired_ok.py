"""Known-clean fixture: every paired mutation balances on all paths."""

class GoodGauge:
    def __init__(self):
        self._waiting = 0

    def run(self):
        self._waiting += 1
        try:
            self.work()
        finally:
            self._waiting -= 1

    def work(self):
        pass


class GoodPool:
    def use(self):
        connection = self._free.get()
        try:
            return connection.do()
        finally:
            self._free.put(connection)
