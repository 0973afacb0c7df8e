"""Topic modeling with informative Dirichlet priors, quality metrics, and an
experiment harness."""

__version__ = "0.1.0"

from .corpus import (AllDocumentsEmpty, Corpus, CorpusStats, Vocabulary,
                     build_corpus, co_doc_counts, co_doc_freq, compute_stats,
                     default_stoplist, delete_low_tfidf, delete_stopwords,
                     load_corpus, load_raw_documents, load_word_list,
                     save_corpus, tokenize)
from .priors import (ConfigMismatch, PriorConfig, PriorMatrix, TopicKind,
                     assemble, keyword_prior, stopword_prior, symmetric_prior,
                     tfidf_prior, validate, wordfreq_prior)
from .sampler import (DimensionMismatch, FittedModel, ModelConfig, ModelState,
                      estimate, fit, heldout_perplexity, hyperparameter_search,
                      init, log_likelihood, sweep, sweep_snapshot, top_words)
from .metrics import (MetricConfig, ModelReport, TopicScore, codocument_appearance,
                      coherence, expert_word_rate, log_lift, pmi_score, report,
                      stopword_rate)
from .experiments import (ExperimentPlan, MissingResource, RunRecord, RunSettings,
                          Variant, comparison_csv, comparison_table,
                          correlation_data, enumerate_runs, run_grid)
