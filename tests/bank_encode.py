"""One text sequence through one path of an EncoderBank, in its own packed
train-mode call, so the cache can be passed to the path's backward."""


def encode_one(bank, name, ids):
    vecs, cache = bank.paths[name].encode([ids])
    return vecs[0], cache


def encode_query(bank, question_ids, answer_ids=None):
    return encode_one(bank, "query", bank.query_ids(question_ids, answer_ids))


def encode_option(bank, option_ids):
    return encode_one(bank, "option", option_ids)


def encode_caption(bank, caption_ids):
    return encode_one(bank, "caption", caption_ids)
