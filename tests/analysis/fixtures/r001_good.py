"""R001 fixture: the legal shape — per-part output lives in the part's
pattern map and is absorbed in ``reduce``."""


class MiningApplication:
    pass


class PureApp(MiningApplication):
    def __init__(self):
        self.total = 0

    def map_embedding(self, ctx, embedding, pmap):
        local = list(embedding)  # locals are fine
        pmap.setdefault("seen", []).append(local)  # pmap is per-part
        pmap[0] = pmap.get(0, 0) + 1

    def reduce(self, ctx, pmaps):
        self.total += sum(pmap.get(0, 0) for pmap in pmaps)  # serial absorption: legal
        return {}


class NotAnApp:
    """Same writes, but not a MiningApplication — out of R001's reach."""

    def map_embedding(self, ctx, embedding, pmap):
        self.count = 1
