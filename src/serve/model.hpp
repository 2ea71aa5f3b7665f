// The serving path's names for the trained model (core/model.hpp).
//
// Every run used to retrain the scaler/SVM/calibration stack from
// scratch; the serving path instead snapshots a trained core::Wimi's
// model, persists it as a `wimi.model.v1` file (model_io.hpp), and
// serves predictions from the loaded copy (inference.hpp).
#pragma once

#include "core/model.hpp"
#include "core/wimi.hpp"

namespace wimi::serve {

/// The serving path's name for the one trained model type.
using TrainedModel = core::Model;

/// A validated copy of `wimi.model()`. Throws wimi::Error when `wimi` is
/// untrained or its model fails core::Model::validate().
inline core::Model snapshot_model(const core::Wimi& wimi) {
    core::Model model = wimi.model();
    model.validate();
    return model;
}

}  // namespace wimi::serve
