"""One text sequence through one text path of a DialogScorer, in its own
packed train-mode call, so the cache can be passed to the path's backward."""


def encode_one(model, name, ids):
    vecs, cache = model.paths[name].encode([ids])
    return vecs[0], cache


def encode_query(model, question_ids, answer_ids=None):
    return encode_one(model, "query", model.query_ids(question_ids, answer_ids))


def encode_option(model, option_ids):
    return encode_one(model, "option", option_ids)


def encode_caption(model, caption_ids):
    return encode_one(model, "caption", caption_ids)
