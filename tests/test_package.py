import mlsvm


def test_every_exported_name_exists():
    missing = [name for name in mlsvm.__all__ if not hasattr(mlsvm, name)]
    assert missing == []
    assert len(set(mlsvm.__all__)) == len(mlsvm.__all__)


def test_predict_model_is_predict():
    assert mlsvm.predict_model is mlsvm.predict
