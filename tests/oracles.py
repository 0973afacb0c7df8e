"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and self-contained: plain loops over
plain data structures, no imports from the package under test. The one
exception is the corpus-pipeline reference below: the string-level corpus
build and word deletion that the flat-array versions replaced, kept as they
were, so they build ``Corpus`` objects through its per-document constructor.
"""

import math
from itertools import product

import numpy as np


# --- corpus statistics reference (word-level dictionaries, tf kept only for
# --- containing documents) --------------------------------------------------

def reference_prior_data(token_docs, keywords=()):
    """Word statistics computed doc by doc: wf, idf (natural log), tfidf as
    mean-over-containing-docs TF times idf, plus keyword flags."""
    data = {}
    num_documents = float(len(token_docs))
    num_words = 0.0
    for index, words in enumerate(token_docs):
        doc_length = float(len(words))
        num_words += doc_length
        for word in set(words):
            word_count = sum(1 for w in words if w == word)
            if word not in data:
                data[word] = {"wordCount": 0, "tf": {}, "keyword": 0, "numDocAppearance": 0}
            data[word]["wordCount"] += word_count
            data[word]["tf"][index] = word_count / doc_length
            data[word]["numDocAppearance"] += 1
    for word in keywords:
        if word in data:
            data[word]["keyword"] = 1
    for entry in data.values():
        entry["wf"] = entry["wordCount"] / num_words
        entry["idf"] = math.log(num_documents / entry["numDocAppearance"])
        entry["tfidf"] = float(np.mean(list(entry["tf"].values()))) * entry["idf"]
    return data


def per_document_stats(documents, vocab_size):
    """The package's compute_stats as it was when it walked the corpus one
    document at a time, over plain lists of word ids. Each word's TF terms
    are summed in document order. Returns the CorpusStats fields as a dict."""
    v = vocab_size
    n_docs = len(documents)
    counts = np.zeros(v, dtype=np.int64)
    doc_freq = np.zeros(v, dtype=np.int64)
    tf_sum = np.zeros(v, dtype=np.float64)
    doc_lists = [[] for _ in range(v)]
    for d, doc in enumerate(documents):
        doc = np.asarray(doc, dtype=np.int32)
        if doc.size == 0:
            continue
        words, per_doc = np.unique(doc, return_counts=True)
        counts[words] += per_doc
        doc_freq[words] += 1
        tf_sum[words] += per_doc / doc.size
        for w in words:
            doc_lists[int(w)].append(d)
    total = counts.sum()
    return {
        "word_freq": counts / total,
        "doc_freq": doc_freq,
        "avg_tfidf": (tf_sum / doc_freq) * np.log(n_docs / doc_freq),
        "doc_index": [np.asarray(lst, dtype=np.int64) for lst in doc_lists],
        "n_docs": n_docs,
        "n_tokens": int(total),
    }


def reference_prior_rows(prior_data, vocab_words, c1=1.0, c2=1.0):
    """The four prior row builders, verbatim logic over the word dictionary.
    Note the keyword row carries weight 0 on non-keywords here; the package
    deliberately uses c2 * 1 instead (positive Dirichlet weights)."""
    return {
        "stopword": [1.0 for _ in vocab_words],
        "wordfreq": [1.0 / prior_data[w]["wf"] for w in vocab_words],
        "tfidf": [c1 * prior_data[w]["tfidf"] for w in vocab_words],
        "keyword": [c2 * prior_data[w]["keyword"] for w in vocab_words],
    }


# --- metric references -------------------------------------------------------

def doc_sets(token_docs):
    sets = {}
    for d, words in enumerate(token_docs):
        for w in set(words):
            sets.setdefault(w, set()).add(d)
    return sets


def naive_coherence(top, token_docs):
    sets = doc_sets(token_docs)
    total = 0.0
    for i in range(len(top) - 1):
        for j in range(i + 1, len(top)):
            co = len(sets[top[i]] & sets[top[j]])
            total += math.log((co + 1) / len(sets[top[i]]))
    return total


def naive_pmi(top, token_docs):
    sets = doc_sets(token_docs)
    n = len(token_docs)
    values = []
    for i in range(len(top) - 1):
        for j in range(i + 1, len(top)):
            joint = len(sets[top[i]] & sets[top[j]]) + 1
            values.append(math.log((joint / n)
                                   / ((len(sets[top[i]]) / n) * (len(sets[top[j]]) / n))))
    values.sort()
    return values[(len(values) - 1) // 2]


def naive_log_lift(top, probs, token_docs):
    """probs: word -> in-topic probability; corpus probability from raw counts."""
    counts = {}
    total = 0
    for words in token_docs:
        for w in words:
            counts[w] = counts.get(w, 0) + 1
            total += 1
    return sum(math.log(probs[w] / (counts[w] / total)) for w in top) / len(top)


def naive_rate(top, words):
    """Share of the top words found among ``words`` (the stopword and expert rates)."""
    return sum(1 for w in top if w in words) / len(top)


def naive_codoc(top, whitelist, token_docs):
    white = set(whitelist)
    hits = 0
    for w in top:
        found = False
        for words in token_docs:
            ws = set(words)
            if w in ws and ws & white:
                found = True
                break
        if found:
            hits += 1
    return hits / len(top)


# --- collapsed joint probability references ----------------------------------

def urn_log_joint(token_docs, z_docs, eta, alpha):
    """log p(w, z) via the sequential predictive (Polya urn) product, one
    token at a time. eta is a (K, V) array; token_docs hold word ids."""
    k_total, v_total = eta.shape
    eta_sums = eta.sum(axis=1)
    n_kw = np.zeros((k_total, v_total))
    n_k = np.zeros(k_total)
    total = 0.0
    for words, zs in zip(token_docs, z_docs):
        n_dk = np.zeros(k_total)
        for i, (w, k) in enumerate(zip(words, zs)):
            total += math.log((n_dk[k] + alpha) / (i + k_total * alpha))
            total += math.log((n_kw[k, w] + eta[k, w]) / (n_k[k] + eta_sums[k]))
            n_dk[k] += 1
            n_kw[k, w] += 1
            n_k[k] += 1
    return total


def _recount(token_docs, z_docs, k_total, v_total):
    n_dk = np.zeros((len(token_docs), k_total), dtype=np.int32)
    n_kw = np.zeros((k_total, v_total), dtype=np.int32)
    n_k = np.zeros(k_total, dtype=np.int32)
    for d, (words, zs) in enumerate(zip(token_docs, z_docs)):
        for w, k in zip(words, zs):
            n_dk[d, k] += 1
            n_kw[k, w] += 1
            n_k[k] += 1
    return n_dk, n_kw, n_k


def snapshot_sweeps(resample, token_docs, z_docs, prior, alpha, uniforms):
    """Snapshot sweeps by their definition: within a sweep each document is
    resampled on fresh copies of the sweep-start topic-word and topic
    counts, so no document sees another's changes; after the sweep every
    table is recounted from the assignments.

    ``resample`` is a sequential token sweep taking (tokens, doc_ix, z,
    n_dk, n_wk, n_k, prior, alpha, uniforms), as the package's numpy kernel
    does, with n_wk word-major (V, K): the (K, V) topic-word table kept here
    is transposed at the call. ``prior`` is passed through to it whole, and
    gives only K and V here. ``uniforms[s][d]`` holds document d's draws in
    sweep s. Returns the assignments per document and n_dk, n_kw, n_k.
    """
    k_total, v_total = prior.n_topics, prior.vocab_size
    z_docs = [np.array(zs, dtype=np.int32) for zs in z_docs]
    n_dk, n_kw, n_k = _recount(token_docs, z_docs, k_total, v_total)
    for sweep_uniforms in uniforms:
        for d, words in enumerate(token_docs):
            resample(np.array(words, dtype=np.int32), np.zeros(len(words), dtype=np.int32),
                     z_docs[d], n_dk[d:d + 1].copy(), n_kw.T.copy(), n_k.copy(),
                     prior, alpha, sweep_uniforms[d])
        n_dk, n_kw, n_k = _recount(token_docs, z_docs, k_total, v_total)
    return z_docs, n_dk, n_kw, n_k


def enumerate_posterior(token_docs, eta, alpha):
    """Exact posterior over all K^N assignments of a tiny corpus. Returns a
    dict mapping the flat assignment tuple to its normalized probability."""
    k_total = eta.shape[0]
    lengths = [len(d) for d in token_docs]
    n_tokens = sum(lengths)
    weights = {}
    for flat in product(range(k_total), repeat=n_tokens):
        z_docs = []
        pos = 0
        for ln in lengths:
            z_docs.append(flat[pos:pos + ln])
            pos += ln
        weights[flat] = urn_log_joint(token_docs, z_docs, eta, alpha)
    peak = max(weights.values())
    raw = {k: math.exp(v - peak) for k, v in weights.items()}
    norm = sum(raw.values())
    return {k: v / norm for k, v in raw.items()}


def greedy_align_cosine(beta, planted):
    """Greedily match each planted row to its best unused fitted row; returns
    the cosine similarity per planted row."""
    used = set()
    sims = []
    for p in planted:
        best, best_k = -1.0, None
        for k in range(beta.shape[0]):
            if k in used:
                continue
            c = float(p @ beta[k] / (np.linalg.norm(p) * np.linalg.norm(beta[k])))
            if c > best:
                best, best_k = c, k
        used.add(best_k)
        sims.append(best)
    return sims


# --- corpus pipeline reference: every document tokenized before any is
# --- indexed, and deletion by mapping each kept token back to its word ------

def reference_build_corpus(raw_docs, doc_ids=None):
    """``build_corpus`` as it was: all documents tokenized into lists of
    strings first, then indexed by first occurrence."""
    from priorlda.corpus import tokenize

    return _reference_index_token_docs([tokenize(doc) for doc in raw_docs], doc_ids)


def _reference_index_token_docs(token_docs, doc_ids):
    from priorlda.corpus import AllDocumentsEmpty, Corpus, Vocabulary

    if all(len(doc) == 0 for doc in token_docs):
        raise AllDocumentsEmpty("no tokens remain in any document")
    word_to_id = {}
    documents = [np.array([word_to_id.setdefault(w, len(word_to_id)) for w in doc], dtype=np.int64)
                 for doc in token_docs]
    return Corpus(documents, Vocabulary(list(word_to_id)), doc_ids)


def _reference_rebuild(corpus, keep):
    words = corpus.vocabulary.id_to_word
    token_docs = [[words[i] for i in doc if keep[i]] for doc in corpus.documents]
    return _reference_index_token_docs(token_docs, corpus.doc_ids)


def reference_delete_stopwords(corpus, stoplist):
    stop = set(stoplist)
    return _reference_rebuild(corpus, np.array([w not in stop for w in corpus.vocabulary.id_to_word]))


def reference_delete_low_tfidf(corpus, percentile=0.05):
    from priorlda.corpus import compute_stats

    stats = compute_stats(corpus)
    return _reference_rebuild(corpus, stats.avg_tfidf >= np.quantile(stats.avg_tfidf, percentile))
